import csv
import hashlib
import importlib
import io
import json
from itertools import combinations

import pytest

from alphatrace import enumeration, trace
from alphatrace.cli import main, parse_alpha
from alphatrace.cli import UsageError
from alphatrace.families import KINDS, build_family, parse_family_string


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bad_files(tmp_path) -> dict:
    """Hypergraph files a loader must reject: cut-off JSON, and JSON whose
    numbers are not integers."""
    broken = tmp_path / "broken.json"
    broken.write_text('{"k": 3, "n": ')
    fractional = tmp_path / "fractional.json"
    fractional.write_text('{"k": 2.9, "n": 3.5, "edges": [[0, 1.7], [1, 2]]}')
    return {"broken": broken, "fractional": fractional}


def test_parse_alpha():
    from fractions import Fraction

    assert parse_alpha("1/2") == Fraction(1, 2)
    assert parse_alpha("9/10") == Fraction(9, 10)
    with pytest.raises(UsageError):
        parse_alpha("0.5")


def test_trace_single_edge(capsys):
    code, out, _ = run(
        capsys, "trace", "hyperpath:k=3,m=1", "--d", "3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["traces"][3]["poly"] == [["9", "1"], ["-27", "1"], ["27", "1"], ["3", "1"]]
    assert data["traces"][0]["poly"] == [["12", "1"]]


def test_trace_cycle_star_order_two(capsys):
    code, out, _ = run(
        capsys, "trace", "cg-odot-s:k=3,g=3,m=4", "--d", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["traces"][2]["poly"] == [["0", "1"], ["0", "1"], ["2816", "1"]]


def test_trace_cross_check(capsys):
    code, out, _ = run(
        capsys, "trace", "hyperstar:k=3,m=2", "--d", "4", "--cross-check",
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
    argv = ("compare", "hyperpath:k=3,m=3", "hyperstar:k=3,m=3", "--symbolic", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # --symbolic decides on all of (0,1), so --alpha changes nothing
    assert run(capsys, *argv, "--alpha", "1/2") == (code, out, "")
    data = json.loads(out)
    assert data["relation"] == "less-on-(0,1)"
    assert data["first_diff_order"] == 2


def test_compare_bad_operand(capsys):
    code, out, err = run(capsys, "compare", "no-such-file.json", "hyperpath:k=3,m=2", "--alpha", "1/2")
    assert code == 2
    assert out == ""
    assert "no-such-file.json" in err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("compare", "hyperpath:k=3,m=x", "hyperstar:k=3,m=3", "--alpha", "1/2"), "'x'"),
        (("trace", "starlike:k=3,arms=2-x", "--d", "2"), "'2-x'"),
        (("trace", "{broken}", "--d", "2"), "broken.json"),
        # a number that is not an integer is rejected, not truncated
        (("trace", "{fractional}", "--d", "2"), "must be an integer"),
        # a rank below 2 is a usage error, not a budget, for every claim and before
        # its k and m hypotheses are read
        (("verify", "--theorem", "6.4", "--k", "1", "--m", "3", "--alpha", "1/2"), "got 1"),
        (("verify", "--theorem", "5.3", "--k", "1", "--m", "3", "--alpha", "1/2"), "got 1"),
        # a rank that now verifies still refuses a weight outside (0, 1) before enumerating
        (("verify", "--theorem", "6.4", "--k", "5", "--m", "3", "--alpha", "1"),
         "alpha must lie strictly inside (0, 1), got 1"),
        (("verify", "--theorem", "6.4", "--k", "0", "--m", "3", "--alpha", "1/2"), "got 0"),
        (("verify", "--theorem", "6.4", "--k", "-3", "--m", "3", "--alpha", "1/2"), "got -3"),
        (("verify", "--theorem", "6.4", "--k", "3", "--m", "-2", "--alpha", "1/2"),
         "m must be >= 0, got -2"),
        (("sort", "--class", "hypertree", "--k", "1", "--m", "2", "--alpha", "1/2"), "got 1"),
        # a negative order bound or edge count is a usage error, not an empty answer
        (("compare", "hyperpath:k=3,m=3", "hyperstar:k=3,m=3", "--alpha", "1/2",
          "--d-max", "-1"), "--d-max must be >= 0"),
        (("sort", "--class", "hypertree", "--k", "3", "--m", "3", "--alpha", "1/2",
          "--d-max", "-1"), "--d-max must be >= 0"),
        (("verify", "--theorem", "6.4", "--k", "3", "--m", "4", "--alpha", "1/2",
          "--d-max", "-1"), "--d-max must be >= 0"),
        (("trace", "hyperpath:k=3,m=2", "--d", "-2"), "--d must be >= 0"),
        # a comparison at one weight needs that weight; a given weight must be exact
        (("compare", "hyperpath:k=3,m=2", "hyperstar:k=3,m=2"), "--alpha is required"),
        (("compare", "hyperpath:k=3,m=2", "hyperstar:k=3,m=2", "--symbolic", "--alpha", "0.5"),
         "exact rational"),
        (("enumerate", "--class", "hypertree", "--k", "3", "--m", "-1"), "m must be >= 0"),
        # a parameter the family does not take is rejected, not ignored
        (("compare", "cg-odot-s:k=3,g=3,m=5,gg=4", "hypercycle:k=3,m=5", "--alpha", "1/2"),
         "does not take params ['gg']"),
        (("trace", "hyperpath:k=3,m=2,g=7,arms=1-1,n1=4", "--d", "1"),
         "does not take params ['arms', 'g', 'n1']"),
        # and so is a key set twice, instead of keeping its last value
        (("compare", "hyperpath:k=3,m=2,k=4", "hyperstar:k=4,m=2", "--alpha", "1/2"),
         "sets k more than once"),
    ],
    ids=["family-string", "arms", "json-file", "fractional-json", "k1-verify",
         "k1-verify-5.3", "k5-verify", "k0-verify", "negative-k-verify", "negative-m-verify",
         "k1-sort", "compare-d-max", "sort-d-max", "verify-d-max", "trace-d", "compare-no-alpha",
         "symbolic-decimal-alpha", "enumerate-m",
         "family-string-extra", "trace-family-extra", "family-string-repeat"],
)
def test_bad_outside_input_exits_2(argv, bad, tmp_path, capsys):
    files = bad_files(tmp_path)
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert code == 2
    assert out == ""
    assert bad in err


@pytest.mark.parametrize(
    "source",
    ["hyperpath:k=3,m=x", "no-such-kind:k=3,m=2", "hyperpath:k=3,m=2,k=4",
     "hyperpath:k=3,m=2,g=7", "starlike:k=3,arms=2-x", "{broken}", "{fractional}",
     "no-such-file.json"],
    ids=["malformed", "unknown-kind", "repeated", "extra", "arms", "json-file",
         "fractional-json", "missing-file"],
)
def test_trace_rejects_a_source_as_compare_does(source, tmp_path, capsys):
    # both commands read sources through one loader, so they fail alike
    source = source.format(**bad_files(tmp_path))
    traced = run(capsys, "trace", source, "--d", "2")
    compared = run(capsys, "compare", source, "hyperpath:k=3,m=2", "--alpha", "1/2")
    assert traced == compared
    assert traced[:2] == (2, "") and traced[2]


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


def test_enumerate_budget_exit(monkeypatch, capsys):
    # a growth past its cap on children built exits 3 and says how far it got
    monkeypatch.setattr(enumeration, "MAX_GROWTH_CHILDREN", 30)
    enumeration._growth.cache_clear()
    code, out, err = run(capsys, "enumerate", "--class", "hypertree", "--k", "3", "--m", "9")
    enumeration._growth.cache_clear()
    assert code == 3
    assert out == ""
    assert "budget exceeded" in err and "members so far" in err


def test_trace_hosts_below_k_vertices(capsys, tmp_path):
    # the structural route, cross-checked against the closed forms and the
    # brute force, exits 0 on edgeless hosts with at most k vertices
    for k in (2, 3, 4):
        for n in range(k + 1):
            path = tmp_path / f"empty-{k}-{n}.json"
            path.write_text(json.dumps({"k": k, "n": n, "edges": []}))
            code, out, err = run(capsys, "trace", str(path), "--d", str(k + 2), "--cross-check")
            assert (code, err) == (0, ""), (k, n, err)
            assert f"  d={k + 2}: 0" in out


def test_trace_walk_budget_exit(monkeypatch, capsys, tmp_path):
    # the complete 3-graph on 5 vertices cannot be peeled, so it takes the walk
    trace_module = importlib.import_module("alphatrace.trace")
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 50)
    trace_module._infragraph_table.cache_clear()
    trace_module._structural_components_cached.cache_clear()
    path = tmp_path / "complete3.json"
    path.write_text(json.dumps({"k": 3, "n": 5, "edges": [list(e) for e in combinations(range(5), 3)]}))
    code, out, err = run(capsys, "trace", str(path), "--d", "8")
    assert code == 3
    assert out == ""
    assert "passed 50 nodes" in err
    assert "infragraphs found so far" in err


def test_trace_rooting_budget_exit(monkeypatch, capsys, tmp_path):
    # K4^(3) minus an edge: its walk stays under 30 nodes per e through
    # order 9, where one infragraph shape takes 39 rooting steps
    trace_module = importlib.import_module("alphatrace.trace")
    monkeypatch.setattr(trace_module, "MAX_WALK_NODES", 30)
    for cache in ("_infragraph_table", "_structural_components_cached", "_rooted_tree_weight"):
        getattr(trace_module, cache).cache_clear()
    path = tmp_path / "k4minus.json"
    path.write_text(json.dumps({"k": 3, "n": 4, "edges": [[0, 1, 2], [0, 1, 3], [0, 2, 3]]}))
    code, out, err = run(capsys, "trace", str(path), "--d", "9")
    assert code == 3
    assert out == ""
    assert "rooting of an infragraph shape with 4 vertices and 9 edge rows passed 30 steps" in err
    assert "states so far" in err


def test_byte_stable_output(capsys):
    args = ("sort", "--class", "hypertree", "--k", "3", "--m", "4", "--alpha", "1/2",
            "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


FAMILY_STRINGS = {
    "hyperpath": "hyperpath:k=3,m=3",
    "hyperstar": "hyperstar:k=3,m=3",
    "hypercycle": "hypercycle:k=3,m=4",
    "cg-odot-s": "cg-odot-s:k=3,g=3,m=4",
    "c3-split": "c3-split:k=3,n1=1,n2=1,n3=0",
    "cg-dot-p": "cg-dot-p:k=3,g=3,m=4",
    "starlike": "starlike:k=3,arms=2-1",
    "fmk": "fmk:k=3,m=4",
}


@pytest.mark.parametrize("kind", KINDS)
def test_trace_family_string_and_file(kind, tmp_path, capsys):
    source = FAMILY_STRINGS[kind]
    h = build_family(parse_family_string(source))
    code, out, _ = run(capsys, "trace", source, "--d", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["traces"] == [{"d": d, "poly": trace(h, d).to_json()} for d in range(4)]
    # the same hypergraph written as a file gives the same bytes
    path = tmp_path / f"{kind}.json"
    path.write_text(h.dumps())
    assert run(capsys, "trace", str(path), "--d", "3", "--format", "json") == (0, out, "")


def test_trace_from_file(tmp_path, capsys):
    from alphatrace import hypercycle

    path = tmp_path / "c3.json"
    path.write_text(hypercycle(3, 3).dumps())
    code, out, _ = run(capsys, "trace", str(path), "--d", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["hypergraph"]["n"] == 6


def test_multi_hypergraph_file_exits_2(tmp_path, capsys):
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps({"k": 3, "n": 5, "edges": [[0, 1, 2], [2, 3, 4]], "mult": [2, 1]}))
    for argv in (
        ("trace", str(path), "--d", "2"),
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
# member indices are mapped through the change of order.  Re-pinned when a
# position claim began to split only the groups its position reads: the
# evidence `groups` became those groups plus one unread rest group, and a
# check whose whole family separated before 2k+2 now reads on to 2k+2;
# every status and exit code stayed.
VERIFY_GOLDEN = {
    (3, 5): {
        "5.1": (0, "7d49bc07a338e50cf23455f46f59c3569778b5283eb4cf6ff2c8083f2e1b05cd"),
        "5.2": (0, "ad5c85ee0b32b12a5698c572b470079ebf5de7e92a08d1013b1a1f7ee7442d2a"),
        "5.3": (0, "2f65b815f51a5e155bc4aa4bdaf7a14669f3f00eddd5e2fbe17ba85b28a5d0a1"),
        "5.5": (0, "1d39619926435de54c36815c27e8754228a8cac525962838a0e9e8598c97d738"),
        "5.6": (0, "aaec1c826f31267cdd45270e07b4f2e661825ac83659c5dd24c7bcd01ff788ef"),
        "5.7": (0, "158442467b47beb3104bddf73e2eab86e91e483f43d6d886571050e2f5bff4a8"),
        "6.2": (0, "f2aadf67a4c2738688cdd8181903d608a6619090610adfec8e516bd380b62391"),
        "6.3": (0, "462f14805adaea592155497da8cb9d232b8f9ca1eb680d05336d7a7a49523f5f"),
        "6.4": (0, "647c4c61a6a2a9a36a833097b8ca5de03551b501a8d23d16dd171057542cf121"),
        "6.5": (0, "f6374e728f43970771255a5055f2bd4d38b39e3dbaf30f474cb672db0cbe1a2e"),
        "6.6": (0, "df92cdff2684abd10ee11e6ab51adf7d606717d169087265595e285bb13c16f6"),
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
        "6.4": (0, "9b09f6b6178e0af385feca159464f7d78965dc2dfd45e1f1fccfce4c62ccf10c"),
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
        "5.2": (0, "1bf734a90f6f9a7317e7c5fa43b02e02cfddb492ffdc86de5809eb99adbde1c9"),
        "5.3": (1, "7b23a9ff52f74eeacd90985475ec415145730797387d489427560def32698c1a"),
        "5.5": (0, "4abebce4a529df37ea56436ce660c98199a84b684eb713cab869f6aec9dc5f1b"),
        "5.6": (0, "89bb3c07c06c3f04505af929d6e6af5c14ed500039ca312e1192e399dbc87b8e"),
        "5.7": (0, "9c8f4d1025f3927c0ae766314612bbc3109742ab081a16c7271f1dc47fb009e0"),
        "6.2": (0, "6277c830e0461ad6a5c20aa56cc9cb48c1a7db17f7b0c4e227d388a7644a4eea"),
        "6.3": (0, "44e23eb1c5f68437815fb155edbd111e51c35839ed2228f81d26e763118875a3"),
        "6.4": (0, "5cfaaeb21f2116c5b2ccde682ae1ae726ec4115aa7430da37c173111e3f110fc"),
        "6.5": (0, "64cd9ce8600c7c8b20351de384481edf7170ce2492d5ea39a090376d1e672ed8"),
        "6.6": (0, "9e8f6f3b820b3f13f9c831975c64ce00b145577b9880aa5218b9afc56829e3de"),
        "7.1": (1, "4bfdf3cd6be51b21b214d8ed621d6788dbde3f9a905984406703be58f6836e37"),
        "7.2": (0, "d0b739a97b04be9ed47bafcd86d291656d4657a86014b770d7165445f8ef7748"),
        "7.3": (0, "d67f4294d631868aeeff175b1460be9ec45ed8a02477218fea7cf1df3b6b1cd3"),
    },
}


# The same digests under `--d-max 2`, where a tie at the claimed position
# extends the order budget one order at a time: at (3, 5) claim 5.7 is
# decided at d_used 8, at (4, 5) at d_used 10; the other position claims
# stop at the first order (>= 2) that settles their end of the ranking.
VERIFY_EXTENSION_GOLDEN = {
    (3, 5): {
        "5.1": (0, "43621f9bc839cf566dd836c190ff056c0462330f20f4f57d4046d91560b3d16a"),
        "5.2": (0, "07a36738fa2530cb2e9a28898b0396d9b0d9e341552f3e37e29370d5c0feff3e"),
        "5.3": (0, "952054f6b22ed2119771ba7d5d00750e1784a6b47b7ce5e2b094108220411552"),
        "5.5": (0, "fdb0b9287c60f36647fdfe6690702ecdae07586aeccb385599818ff423774f52"),
        "5.6": (0, "ace2a262491ee674621a12e382d64170a1211d0dc2be1a359956fb257a45313d"),
        "5.7": (0, "158442467b47beb3104bddf73e2eab86e91e483f43d6d886571050e2f5bff4a8"),
        "6.2": (0, "039af3d682b27bbb27014b3e1e136c91083343ef326677e3732351f921ce961e"),
        "6.3": (0, "61a7cfc4ad9ab02e885017a71ce466d503908ec9b8fe3c2497981cf86378ac8d"),
        "6.4": (0, "91066403adad5b64e7ef20cae6382ef2f9fde33e1249d6cbd4ef4d29bfbafe6c"),
        "6.5": (0, "d1ee416b1ae671d91f53842ed84aadcf06dabe74b1243cb63d063f6f945a1b09"),
        "6.6": (0, "bff7efc3d2747b0a900bf2e1dc86c91cf0150aaf0910624347112d0875e98cc1"),
        "7.1": (0, "6147392fbb6c3ee536f193e7651209ebaeaf233b3d8eebc0502ec2bf55d16045"),
        "7.2": (0, "96b40de4d490e93caf7403cb47cd1a0596a518da51e0ce1ac81c0f46c9ba84b6"),
        "7.3": (0, "dcd0422fa60b773015e1c576568952729955f5edac2e48cd5a6796057494c35f"),
    },
    (4, 5): {
        "5.1": (0, "a11286368945fded3d5406b8796dba739908cb1909c604ca9ea9356d8fec0cd5"),
        "5.2": (0, "fa8dedfdea6bd4abd5dc3bce91d5ab089a2ade3f2d44a97fb1158ddc58701cb4"),
        "5.3": (0, "f2c5737d08c79fd2d1ba15defa5b3875fc3ecca366716b73dcaef9e7d1d3305e"),
        "5.5": (0, "5710824f02ff9e8d0b511cef6e4b534aead6d3d071ecf29923ae0c724f718efd"),
        "5.6": (0, "ccfb53640ebd3b496115c77ed790f601568f9eaa5c24654dbdea93c8b6a58f24"),
        "5.7": (0, "a88e7c122c3540af4049b76234be0dabc997de9a5b8aef65c793e85a44e12d83"),
        "6.2": (0, "d48902ee5ddb151ba50522fe58de2445c184247a9f7f1a78d553700a8534a2b6"),
        "6.3": (0, "a36b95f5d9acb86c9a861a562ec9fc77613560c420b364c151b73cbff8eae9ef"),
        "6.4": (0, "36a252ed7432cc5112be602dcda336a1d851728e5ef08d9a93742f8632f0bd85"),
        "6.5": (0, "dd1c436a76c422abc7e22e1885bc299468f9027e03054ad53d57804454a8fb66"),
        "6.6": (0, "42846c95d9c4697a10d2bea823b250fb5eb4fe4e288fd73147e2eb6a89b58612"),
        "7.1": (0, "c79d67fd03307ce9be65e7a60554936c3f92521bbe3f59a99a79af5947c1ccdd"),
        "7.2": (0, "3add1042b2135482779d9e94527d119867d98510869c408f58fe14d11e7b774c"),
        "7.3": (0, "83d27371571c114ea3cbe0a394794d4269d1380ad56ba4b60b1beae4a4f7ce81"),
    },
}


def _check_verify_digests(capsys, golden, *extra):
    from alphatrace.ordering import list_claims

    for (k, m), digests in golden.items():
        assert sorted(digests) == sorted(cid for cid, _ in list_claims())
        for cid, (want_code, want_digest) in digests.items():
            code, out, _ = run(
                capsys, "verify", "--theorem", cid, "--k", str(k), "--m", str(m),
                "--alpha", "1/2", *extra, "--format", "json",
            )
            got = (code, hashlib.sha256(out.encode()).hexdigest())
            assert got == (want_code, want_digest), (cid, k, m)


def test_verify_golden_bytes(capsys):
    _check_verify_digests(capsys, VERIFY_GOLDEN)


def test_verify_budget_extension_bytes(capsys):
    _check_verify_digests(capsys, VERIFY_EXTENSION_GOLDEN, "--d-max", "2")


def test_csv_rows_of_trace_and_sort(capsys):
    code, out, _ = run(
        capsys, "trace", "hyperpath:k=3,m=1", "--d", "3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "key,d,coeff_index,numerator,denominator",
        '"hyperpath:k=3,m=1",0,0,12,1',
        '"hyperpath:k=3,m=1",1,0,0,1',
        '"hyperpath:k=3,m=1",1,1,12,1',
        '"hyperpath:k=3,m=1",2,0,0,1',
        '"hyperpath:k=3,m=1",2,1,0,1',
        '"hyperpath:k=3,m=1",2,2,12,1',
        '"hyperpath:k=3,m=1",3,0,9,1',
        '"hyperpath:k=3,m=1",3,1,-27,1',
        '"hyperpath:k=3,m=1",3,2,27,1',
        '"hyperpath:k=3,m=1",3,3,3,1',
    ]
    code, out, _ = run(
        capsys, "sort", "--class", "hypertree", "--k", "3", "--m", "3", "--alpha", "1/2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "rank,member,edges",
        '0,0,"[[0, 1, 2], [0, 3, 4], [1, 5, 6]]"',
        '1,1,"[[0, 1, 2], [0, 3, 4], [0, 5, 6]]"',
    ]
    # a CSV reader sees three fields per row, the edge list as one of them
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [3, 3, 3]
    assert json.loads(rows[1][2]) == [[0, 1, 2], [0, 3, 4], [1, 5, 6]]


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
        ("trace", "hyperstar:k=3,m=2", "--d", "4", "--cross-check"),
        ("compare", "hyperpath:k=3,m=3", "hyperstar:k=3,m=3", "--alpha", "1/2", "--cross-check"),
        ("compare", "hyperpath:k=3,m=3", "hyperstar:k=3,m=3", "--symbolic", "--cross-check"),
    ],
    ids=["trace", "compare", "compare-symbolic"],
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


def test_cross_check_names_the_closed_route(monkeypatch, capsys):
    # the closed forms are checked at every order through k+2, before the brute force
    trace_module = importlib.import_module("alphatrace.trace")
    closed = trace_module.trace_closed

    def off_by_one(h, d):
        return closed(h, d) + 1 if d == 4 else closed(h, d)

    monkeypatch.setattr(trace_module, "trace_closed", off_by_one)
    code, out, err = run(capsys, "trace", "hyperstar:k=3,m=2", "--d", "5", "--cross-check")
    assert code == 1
    assert out == ""
    assert '"order": 4' in err and '"closed"' in err and '"bruteforce"' not in err


def test_trace_method_is_gone(capsys):
    # options that are gone are rejected, not ignored
    for argv, gone in (
        (["trace", "hyperpath:k=3,m=2", "--d", "2", "--method", "brute"], "--method brute"),
        (["verify", "--theorem", "6.4", "--k", "3", "--m", "4", "--alpha", "1/2",
          "--max-edges", "7"], "--max-edges 7"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {gone}" in capsys.readouterr().err


def test_trace_brute_budget_exit(monkeypatch, capsys):
    trace_module = importlib.import_module("alphatrace.trace")
    monkeypatch.setattr(trace_module, "MAX_ASSIGNMENT_CLASSES", 1000)
    code, out, err = run(
        capsys, "trace", "hyperpath:k=3,m=4", "--d", "8", "--cross-check",
    )
    assert code == 3
    assert out == ""
    assert "cap 1000" in err
