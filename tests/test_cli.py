import hashlib
import importlib
import json

import pytest

from alphatrace.cli import main, parse_alpha
from alphatrace.cli import UsageError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_alpha():
    from fractions import Fraction

    assert parse_alpha("1/2") == Fraction(1, 2)
    assert parse_alpha("9/10") == Fraction(9, 10)
    with pytest.raises(UsageError):
        parse_alpha("0.5")


def test_trace_single_edge(capsys):
    code, out, _ = run(
        capsys, "trace", "--family", "hyperpath", "--k", "3", "--m", "1", "--d", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["traces"][3]["poly"] == [["9", "1"], ["-27", "1"], ["27", "1"], ["3", "1"]]
    assert data["traces"][0]["poly"] == [["12", "1"]]


def test_trace_cycle_star_order_two(capsys):
    code, out, _ = run(
        capsys, "trace", "--family", "cg-odot-s", "--k", "3", "--g", "3", "--m", "4",
        "--d", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["traces"][2]["poly"] == [["0", "1"], ["0", "1"], ["2816", "1"]]


def test_trace_cross_check(capsys):
    code, out, _ = run(
        capsys, "trace", "--family", "hyperstar", "--k", "3", "--m", "2", "--d", "4",
        "--cross-check",
    )
    assert code == 0


def test_compare_self_equal(capsys):
    code, out, _ = run(
        capsys, "compare", "hyperpath:k=3,m=2", "hyperpath:k=3,m=2",
        "--alpha", "1/2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["relation"] == "equal-up-to"
    assert data["d_max"] == 8  # default 2k+2 from the first operand


def test_compare_symbolic(capsys):
    code, out, _ = run(
        capsys, "compare", "hyperpath:k=3,m=3", "hyperstar:k=3,m=3",
        "--alpha", "1/2", "--symbolic", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["relation"] == "less-on-(0,1)"
    assert data["first_diff_order"] == 2


def test_compare_bad_operand(capsys):
    code, out, err = run(capsys, "compare", "no-such-file.json", "hyperpath:k=3,m=2", "--alpha", "1/2")
    assert code == 2
    assert out == ""
    assert "no-such-file.json" in err


@pytest.mark.parametrize(
    "budget_env, argv, bad",
    [
        ("abc", ("sort", "--class", "hypertree", "--k", "3", "--m", "3", "--alpha", "1/2"), "'abc'"),
        (None, ("compare", "hyperpath:k=3,m=x", "hyperstar:k=3,m=3", "--alpha", "1/2"), "'x'"),
        (None, ("trace", "--family", "starlike", "--k", "3", "--arms", "2-x", "--d", "2"), "'2-x'"),
        (None, ("trace", "--input", "{broken}", "--d", "2"), "broken.json"),
        # a rank the enumeration does not support is a usage error, not a budget
        (None, ("verify", "--theorem", "6.4", "--k", "5", "--m", "3", "--alpha", "1/2"), "got 5"),
        (None, ("sort", "--class", "hypertree", "--k", "5", "--m", "2", "--alpha", "1/2",
                "--max-edges", "10"), "got 5"),
        # a negative order bound or edge count is a usage error, not an empty answer
        (None, ("compare", "hyperpath:k=3,m=3", "hyperstar:k=3,m=3", "--alpha", "1/2",
                "--d-max", "-1"), "--d-max must be >= 0"),
        (None, ("sort", "--class", "hypertree", "--k", "3", "--m", "3", "--alpha", "1/2",
                "--d-max", "-1"), "--d-max must be >= 0"),
        (None, ("verify", "--theorem", "6.4", "--k", "3", "--m", "4", "--alpha", "1/2",
                "--d-max", "-1"), "--d-max must be >= 0"),
        (None, ("trace", "--family", "hyperpath", "--k", "3", "--m", "2", "--d", "-2"),
         "--d must be >= 0"),
        (None, ("enumerate", "--class", "hypertree", "--k", "3", "--m", "-1"), "m must be >= 0"),
    ],
    ids=["budget-env", "family-string", "arms", "json-file", "k5-verify", "k5-sort",
         "compare-d-max", "sort-d-max", "verify-d-max", "trace-d", "enumerate-m"],
)
def test_bad_outside_input_exits_2(budget_env, argv, bad, tmp_path, monkeypatch, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"k": 3, "n": ')
    if budget_env is not None:
        monkeypatch.setenv("ALPHATRACE_MAX_EDGES", budget_env)
    code, out, err = run(capsys, *(a.format(broken=broken) for a in argv))
    assert code == 2
    assert out == ""
    assert bad in err


def test_compare_alpha_rejects_decimal(capsys):
    code, _, err = run(
        capsys, "compare", "hyperpath:k=3,m=2", "hyperstar:k=3,m=2", "--alpha", "0.5"
    )
    assert code == 2
    assert "exact rational" in err


def test_sort_unicyclic(capsys):
    code, out, _ = run(
        capsys, "sort", "--class", "linear-unicyclic", "--k", "3", "--m", "4",
        "--alpha", "1/2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    first = data["groups"][0][0]
    # the full hypercycle comes first
    assert len(first["edges"]) == 4
    degs = {}
    for e in first["edges"]:
        for v in e:
            degs[v] = degs.get(v, 0) + 1
    assert sorted(degs.values(), reverse=True)[0] == 2


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "6.4", "--k", "3", "--m", "4", "--alpha", "1/2")
    assert code == 0
    assert "PASS" in out
    code2, out2, _ = run(capsys, "verify", "--theorem", "5.3", "--k", "3", "--m", "4", "--alpha", "1/2")
    assert code2 == 1
    assert "degenerate" in out2


def test_enumerate_dump(tmp_path, capsys):
    code, out, _ = run(
        capsys, "enumerate", "--class", "hypertree", "--k", "3", "--m", "3",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest) == 2


def test_enumerate_budget_exit(capsys):
    code, _, err = run(capsys, "enumerate", "--class", "hypertree", "--k", "3", "--m", "9")
    assert code == 3
    assert "budget" in err.lower()


def test_trace_walk_budget_exit(monkeypatch, capsys):
    trace_module = importlib.import_module("alphatrace.trace")
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 50)
    trace_module._infragraph_table.cache_clear()
    trace_module._structural_components_cached.cache_clear()
    code, out, err = run(capsys, "trace", "--family", "hypercycle", "--k", "2", "--m", "5", "--d", "8")
    assert code == 3
    assert out == ""
    assert "passed 50 nodes" in err
    assert "infragraphs found so far" in err


def test_byte_stable_output(capsys):
    args = ("sort", "--class", "hypertree", "--k", "3", "--m", "4", "--alpha", "1/2",
            "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_trace_from_file(tmp_path, capsys):
    from alphatrace import hypercycle

    path = tmp_path / "c3.json"
    path.write_text(hypercycle(3, 3).dumps())
    code, out, _ = run(capsys, "trace", "--input", str(path), "--d", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["hypergraph"]["n"] == 6


def test_multi_hypergraph_file_exits_2(tmp_path, capsys):
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps({"k": 3, "n": 5, "edges": [[0, 1, 2], [2, 3, 4]], "mult": [2, 1]}))
    for argv in (
        ("trace", "--input", str(path), "--d", "2"),
        ("compare", str(path), "hyperpath:k=3,m=2", "--alpha", "1/2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "multiplicit" in err


# sha256 of `verify --format json` stdout and the exit code, per (k, m) and
# claim, at alpha=1/2.  k=3, m=5 is the main set; (2, 4), (3, 3) and (3, 4)
# are the sizes where hypothesis gates fire, rows of the moment claims are
# skipped (order k+2 at k=2, the second-largest order-2 row below m=4) or a
# second position is degenerate.  A change that alters these bytes on
# purpose (for example a new canonical key order) must update the digests
# and log why.
VERIFY_GOLDEN = {
    (3, 5): {
        "5.1": (0, "e5b7db05f37ddb27f425510a6232d437569d5da4d9ec0da661184d959b8460ae"),
        "5.2": (0, "6a2a6c25499497af7cd035f13c4d0b56ceca7f9a586517b8ad7ea2b8782efb49"),
        "5.3": (0, "27c9c1f2c9d2faf144140bbcdac8f6c6d9e8d54f0354c32e229d92b3c469fc22"),
        "5.5": (0, "416cda2baecbed30b47effd443cf8194be62d784352da007be352befa8a0a9f8"),
        "5.6": (0, "58a49becebca9ef781ffaf80a4a7945a52d1d3de38c66a72d55b2c9fc9cdb69c"),
        "5.7": (0, "cb9d864dc201c2dcb7b9d6302ef5f05c3d64923c932e613cda6db938ca4bbb41"),
        "6.2": (0, "8fb7b0944f670bc30516a35774349d7d8b3665ae31cf6c1c61f87f32a4fe313a"),
        "6.3": (0, "179fa10cf459f39d948fc5fba49053f6141a58ff90f7926d92c15e24eb07f0d7"),
        "6.4": (0, "dc84940bd28dd5ac04a7da30e6706b76ba0f4cf800e6727de6cf85e4df5c00ac"),
        "6.5": (0, "b9b54a362b961a4f0b92dbe4f57925763220379b103c5fc562dae23c40dac107"),
        "6.6": (0, "72c0bd63dcb1f7839d2549dacf06191a4153c6f205cbb92e324ebdca9e89efa4"),
        "7.1": (0, "6147392fbb6c3ee536f193e7651209ebaeaf233b3d8eebc0502ec2bf55d16045"),
        "7.2": (0, "96b40de4d490e93caf7403cb47cd1a0596a518da51e0ce1ac81c0f46c9ba84b6"),
        "7.3": (0, "dcd0422fa60b773015e1c576568952729955f5edac2e48cd5a6796057494c35f"),
    },
    (2, 4): {
        "5.1": (0, "38090169cc498a824e2504ad47671b873930cae2dc6b7124d2f666f5eba475d2"),
        "5.2": (0, "83569827b8afc6b9d56117be272e4b2f05d0c6402eb4bdfccfc972e99f98bafd"),
        "5.3": (1, "f7ed88b53898f6e2cb4989e36d40415a16716f39b219a11c4aa3d5b244cbfccb"),
        "5.5": (1, "af9b31da68f78cb8a8ca7b96c9dc6a6f5eb475fc7e302ae2d3803e639d104b48"),
        "5.6": (1, "cac1d5f6c93c58f328ac8c7029a362f46897561e7e6c5ca9d249d9725a734957"),
        "5.7": (1, "0b158a84789c0350b9ad42b4420f22a3f2e95cdf885f6207a3b33dc82f93819e"),
        "6.2": (1, "2b5bde2f5be4ecf8f3688051bde2b23275ee57e7fd18711b6ba840e22a3b25fd"),
        "6.3": (1, "9da7cf7907a150cab67f88c76ae2eb3b5fee133d84f23d9d36fe43801f4e1c14"),
        "6.4": (0, "d8fd8f552f177b25272361ba171b2e7fdd5e331358a888995faf3c9623dff1be"),
        "6.5": (0, "f77bceabb7740f7453a87dca0ccd760c3ea323d23e9e18830624b057a00b2952"),
        "6.6": (0, "b1eb4ac35adcb2fc275c1cbab0ef3720c4e7f65593148d634a9b8884ae95e493"),
        "7.1": (1, "4829e9572ae12abb57ec4af2d4f7d3e256321227c7b9f902b067e3075124f356"),
        "7.2": (1, "94de812573051e3d416913eb366519ba3fd1475c77e99b31c0f67b53a7f058c4"),
        "7.3": (0, "aabb0c1ae279999be68865a03ce2c5c68ca450716030d484773fe40136d88419"),
    },
    (3, 3): {
        "5.1": (0, "a45ddd079f6e8d9c8f2aac0cf607f362259542a42e8a07b52b951633f0be6f22"),
        "5.2": (0, "9ef3f6c7926affd845b8c39010315f82c206803c0a0245fb065db49e42cc1c41"),
        "5.3": (1, "81a1f24b7044d815e4fcd8b677f58d2a025707b80fd698f0cb966cde48eb9d56"),
        "5.5": (0, "794dacd05deecd736407e815674ef9b4bb41c82b9333db2c82a785f7b23471a0"),
        "5.6": (0, "5f49d84d120d84744c1794814b8d9f8a39c78dc8313da02aacbd352a83c6d588"),
        "5.7": (1, "f5ae8349bbad2e62354d9d8c8b8eae8d335dc20a57dd409e1d62e6d19761a019"),
        "6.2": (0, "29149fd90d76c41a136a1f8491181722d85df0ca0d694c5f057afc18445a3be3"),
        "6.3": (1, "e74fbd05adb0dca0585248383fb81c6c91f94bd9744a30c5f8c44ce912d8d1b9"),
        "6.4": (0, "3258c925900fc036b445a2806276754bf04c8e66486a7f84d61aba2646cc7cef"),
        "6.5": (0, "3c8cc11900ac55411ebc4264f47fc9c77204b39e9b5869cbf7b080ed804b821f"),
        "6.6": (0, "f8c39092ac47e4f8b05507afaa3ba28f1d554f5145a84165e05454728183ac64"),
        "7.1": (0, "11d9bef8940c92d62aec3d87fd4e32afc20e0a85185a0772b0b566a5287a331b"),
        "7.2": (0, "6896beeeccd8428ca389b1dd0c92a3a15c212a7bd4c2ef7d83564ffc693229dd"),
        "7.3": (1, "1f72cd11a3b8a5a8103ac5acec42a1b692dbe268a0b9bc99d7755e0a5c200f97"),
    },
    (3, 4): {
        "5.1": (0, "639bc9e6e5e7b21287d1441c1b84e86934e01ccafdd2ada403bd36973a68db57"),
        "5.2": (0, "55321c6269da0d0c7779a38e30d501f9934ef8057581cc530091d6d962ee4cad"),
        "5.3": (1, "69860fa2f1d1544adcbb2417adf91951ad10bba76dbcd815949eba9b14f43c78"),
        "5.5": (0, "bc3177bc397c341a6f0f3b9914ca3563e59330465e77a86660c754da08bed502"),
        "5.6": (0, "76491c22049eb9f4906d7edb56117c650cfe19f6a928e283b530bb8a9f0a63b0"),
        "5.7": (0, "a23415d84bc38a7133dba5e50bf04489b78e7e1d6363ae8ebf40b1617233989f"),
        "6.2": (0, "369dfec9ac8ac6343b3772ac29cd78639282d4f13076468b95e0bb010278bae9"),
        "6.3": (0, "286bb98b9f3eba7cd22ab230b5b13a8237a77a8cf46015805028ea8a807cebc2"),
        "6.4": (0, "ec28d63ba4d9c257d4e0102e3fca0ce5c389c9b41c81f252f323b1608d27134a"),
        "6.5": (0, "c36eec812623bc76c69f80c414193096f1f9d465b386fb3d0737e7afb6a487b9"),
        "6.6": (0, "778cb93353a4e4bda8f0f6298896ca7b3f8871654183ec992b270e306808844e"),
        "7.1": (1, "4bfdf3cd6be51b21b214d8ed621d6788dbde3f9a905984406703be58f6836e37"),
        "7.2": (0, "d0b739a97b04be9ed47bafcd86d291656d4657a86014b770d7165445f8ef7748"),
        "7.3": (0, "d67f4294d631868aeeff175b1460be9ec45ed8a02477218fea7cf1df3b6b1cd3"),
    },
}


def test_verify_golden_bytes(capsys):
    from alphatrace.ordering import list_claims

    for (k, m), digests in VERIFY_GOLDEN.items():
        assert sorted(digests) == sorted(cid for cid, _ in list_claims())
        for cid, (want_code, want_digest) in digests.items():
            code, out, _ = run(
                capsys, "verify", "--theorem", cid, "--k", str(k), "--m", str(m),
                "--alpha", "1/2", "--format", "json",
            )
            got = (code, hashlib.sha256(out.encode()).hexdigest())
            assert got == (want_code, want_digest), (cid, k, m)
