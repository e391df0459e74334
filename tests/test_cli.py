import hashlib
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


# sha256 of `verify --format json` stdout and the exit code, per claim, at
# k=3, m=5, alpha=1/2.  A change that alters these bytes on purpose (for
# example a new canonical key order) must update the digests and log why.
VERIFY_GOLDEN = {
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
}


def test_verify_golden_bytes(capsys):
    from alphatrace.ordering import list_claims

    assert sorted(VERIFY_GOLDEN) == sorted(cid for cid, _ in list_claims())
    for cid, (want_code, want_digest) in VERIFY_GOLDEN.items():
        code, out, _ = run(
            capsys, "verify", "--theorem", cid, "--k", "3", "--m", "5", "--alpha", "1/2",
            "--format", "json",
        )
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want_code, want_digest), cid
