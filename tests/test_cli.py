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
        # a number that is not an integer is rejected, not truncated
        (None, ("trace", "--input", "{fractional}", "--d", "2"), "must be an integer"),
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
    ids=["budget-env", "family-string", "arms", "json-file", "fractional-json", "k5-verify",
         "k5-sort", "compare-d-max", "sort-d-max", "verify-d-max", "trace-d", "enumerate-m"],
)
def test_bad_outside_input_exits_2(budget_env, argv, bad, tmp_path, monkeypatch, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"k": 3, "n": ')
    fractional = tmp_path / "fractional.json"
    fractional.write_text('{"k": 2.9, "n": 3.5, "edges": [[0, 1.7], [1, 2]]}')
    if budget_env is not None:
        monkeypatch.setenv("ALPHATRACE_MAX_EDGES", budget_env)
    code, out, err = run(capsys, *(a.format(broken=broken, fractional=fractional) for a in argv))
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
# and log why.  Re-pinned when canonical keys became incidence-tree codes:
# member order changed, and every report equals the previous one once its
# member indices are mapped through the change of order.
VERIFY_GOLDEN = {
    (3, 5): {
        "5.1": (0, "6da8de706dce4c5dd6ddd7db31bd3d90a585a1ff5b1971ec3d8449b4c0ecda16"),
        "5.2": (0, "44f2a2b048fa36ab5189dd4a0971bb61196ea6737d1c7657ed1a5fecdcf08e82"),
        "5.3": (0, "b994321c8ed0fddbc05f17d377fabd64a06f00b2a7530717334c3813936c10ba"),
        "5.5": (0, "4496a89d78c5d188b484fe7e540df50163f0ee70d23ad07a982839abd0e4e08c"),
        "5.6": (0, "c2890cad78fa3d0ed46beb3be42fb7ab37500c5105f23b5d3ffa0b03c7686e2f"),
        "5.7": (0, "59ba8aed70a7ddf7b796a92eb7030480cb0096da857cde1bc850e1d8d15578d5"),
        "6.2": (0, "32d0bd35613681cb952951cafc617ed4b2b3a15ee64fe383d22f22b6ad25672d"),
        "6.3": (0, "23beac33fa419328dd9d8b6bd87c6580bb5b72d7e32bd9eeff561301f1feed39"),
        "6.4": (0, "7f35bc2169ec0643cdbf008550786c22ad1d9b9ebde06eca158966422f94000c"),
        "6.5": (0, "f4f5e080a2a2dedb42916be7820c9a0d6858452179f5e9234a7b4600fb6562c0"),
        "6.6": (0, "c7967c5b26378c1879755b340571e362429a586bf211bf7412b654851bdad7ba"),
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
        "6.4": (0, "e0a7560292db788274742a071334519c16856269c5854d83b9ea31b233af2dba"),
        "6.5": (0, "f77bceabb7740f7453a87dca0ccd760c3ea323d23e9e18830624b057a00b2952"),
        "6.6": (0, "93d18b103134b9461ca4002933d7c9b750026e9431e9fa4b41c06f42266d8a15"),
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
        "5.1": (0, "0ad58ab5bb2fc119b7cc34a09a62a8fd5e6fc54b965809635257a7884239bdc4"),
        "5.2": (0, "fd34664569996a38127fefdaafdbae1d5b1fc4e282c29b6664164d9b36f70379"),
        "5.3": (1, "7b23a9ff52f74eeacd90985475ec415145730797387d489427560def32698c1a"),
        "5.5": (0, "4abebce4a529df37ea56436ce660c98199a84b684eb713cab869f6aec9dc5f1b"),
        "5.6": (0, "1678583fc92a09e5067ba0f82ef80c4031010826c51cc9e40459addd8e737b98"),
        "5.7": (0, "9c8f4d1025f3927c0ae766314612bbc3109742ab081a16c7271f1dc47fb009e0"),
        "6.2": (0, "67884570c169f1448f01afbb8ccf2f3473f5febbf387c2cf1b951a83cc94cf61"),
        "6.3": (0, "e0a3eef36b4dd92ec0b39ea6e7ec970f8f081b70dc5597121693dc83fbb17c22"),
        "6.4": (0, "a0a0b8eeaabe1cab7a8167a645bd21eb0d3220163b7d5e6e9b641f2b5f3bd015"),
        "6.5": (0, "64cd9ce8600c7c8b20351de384481edf7170ce2492d5ea39a090376d1e672ed8"),
        "6.6": (0, "5fb7cbac3b6ee826a6957ef71663f018ec4f63b7fe144e5ffd2dfd222fbe71a1"),
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


def test_csv_rows_of_trace_and_sort(capsys):
    code, out, _ = run(
        capsys, "trace", "--family", "hyperpath", "--k", "3", "--m", "1", "--d", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "key,d,coeff_index,numerator,denominator",
        "hyperpath,0,0,12,1",
        "hyperpath,1,0,0,1",
        "hyperpath,1,1,12,1",
        "hyperpath,2,0,0,1",
        "hyperpath,2,1,0,1",
        "hyperpath,2,2,12,1",
        "hyperpath,3,0,9,1",
        "hyperpath,3,1,-27,1",
        "hyperpath,3,2,27,1",
        "hyperpath,3,3,3,1",
    ]
    code, out, _ = run(
        capsys, "sort", "--class", "hypertree", "--k", "3", "--m", "3", "--alpha", "1/2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "rank,member,edges",
        "0,0,[[0, 1, 2], [0, 3, 4], [1, 5, 6]]",
        "1,1,[[0, 1, 2], [0, 3, 4], [0, 5, 6]]",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "hyperpath:k=3,m=2", "hyperstar:k=3,m=2", "--alpha", "1/2"),
        ("enumerate", "--class", "hypertree", "--k", "3", "--m", "3"),
        ("verify", "--theorem", "6.4", "--k", "3", "--m", "4", "--alpha", "1/2"),
    ],
    ids=["compare", "enumerate", "verify"],
)
def test_csv_only_where_rows_exist(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--format", "csv"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid choice: 'csv'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--family", "hyperstar", "--k", "3", "--m", "2", "--d", "4", "--cross-check"),
        ("compare", "hyperpath:k=3,m=3", "hyperstar:k=3,m=3", "--alpha", "1/2", "--cross-check"),
    ],
    ids=["trace", "compare"],
)
def test_cross_check_disagreement_exits_1(argv, monkeypatch, capsys):
    trace_module = importlib.import_module("alphatrace.trace")
    brute = trace_module.trace_bruteforce

    def off_by_one(h, d):
        return brute(h, d) + 1 if d == 2 else brute(h, d)

    monkeypatch.setattr(trace_module, "trace_bruteforce", off_by_one)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "method disagreement" in err
    assert '"order": 2' in err and '"structural"' in err


def test_trace_brute_budget_exit(monkeypatch, capsys):
    trace_module = importlib.import_module("alphatrace.trace")
    monkeypatch.setattr(trace_module, "MAX_ASSIGNMENT_CLASSES", 1000)
    code, out, err = run(
        capsys, "trace", "--family", "hyperpath", "--k", "3", "--m", "4", "--d", "8",
        "--method", "brute",
    )
    assert code == 3
    assert out == ""
    assert "cap 1000" in err
