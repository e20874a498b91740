"""Golden stdout digests for CLI paths the benchmark does not always run.

Each case pins the exit code and the SHA-256 of the full stdout of one
fixed invocation.  A change to the exact kernel, to the catalecticant
bookkeeping, to the expansion of F or to the certificate loop that
alters a single output byte fails here.  The rational `analyze` cases
are the only ones that feed non-integral entries to the elimination
kernel; the Perazzo case exhausts the Lefschetz search; the trivial
`construct` cases (h_1 = 1), the conic case and the two largest tails
cases, whose digests are those of the benchmark reference, are drawn by
the benchmark only in some passes.  The plane sequence through 45 and
the points case with x0 = 0 pin plateau lines (h(j) = |X|) outside the
reference; the plane sequence through 55 and the families at m = 10
pin Gram eliminations whose scale d!/(d-2j)! is tens of bits.  The
cubic in 40 variables and the degree-12 form in 3 pin the polynomial
route on packed divided-power keys of 80 bits and of 13 digits per
variable.  The rnc, conic and tails cases with an explicit --d pin
the socle degree each verifier takes from the caller, above 2 tau and
below it (a PreconditionViolatedError document, exit 2).  The malformed
sequence with a quote, a non-ASCII letter and a backslash pins the
string escapes of the JSON writer.  Every op of the benchmark reference
is replayed here too.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from gorlef import gorenstein
from gorlef.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


_POLY_INT = json.dumps({"n_vars": 3, "ring": "R", "terms": [
    {"exp": [2, 2, 0], "coef": "1"}, {"exp": [0, 1, 3], "coef": "-2"},
    {"exp": [1, 0, 3], "coef": "5"}, {"exp": [0, 0, 4], "coef": "1"}]})
_POLY_RATIONAL = json.dumps({"n_vars": 4, "ring": "R", "terms": [
    {"exp": [1, 1, 1, 0], "coef": "1/3"}, {"exp": [0, 1, 1, 1], "coef": "-7/2"},
    {"exp": [3, 0, 0, 0], "coef": "2"}, {"exp": [0, 0, 0, 3], "coef": "1"}]})
_POLY_SMALL = json.dumps({"n_vars": 3, "ring": "R", "terms": [
    {"exp": [2, 1, 1], "coef": "1"}, {"exp": [0, 3, 1], "coef": "1"}]})
# Perazzo's cubic X0 X3^2 + X1 X3 X4 + X2 X4^2: its algebra fails SLP and
# WLP, so the search runs out and reports its last failing attempt.
_POLY_PERAZZO = json.dumps({"n_vars": 5, "ring": "R", "terms": [
    {"exp": [1, 0, 0, 2, 0], "coef": "1"}, {"exp": [0, 1, 0, 1, 1], "coef": "1"},
    {"exp": [0, 0, 1, 0, 2], "coef": "1"}]})
_POINTS_RATIONAL = json.dumps({"points": [
    ["1", "1/2", "3/7"], ["1", "-2/3", "2"], ["2/5", "1", "-1/4"],
    ["1", "3", "5/6"]]})
# Six points of P^2 with h_X = 1,3,6, two of them with x0 = 0: at d = 6
# the lines j = 2, 3 have h(j) = s, and the first ell drawn lies on a
# line through two points, so its j = 2 det is 0 and its rank is taken.
_POINTS_X0 = json.dumps({"points": [
    ["0", "1", "2"], ["1", "0", "0"], ["1", "1", "1"], ["0", "0", "1"],
    ["1", "-1", "3"], ["2", "3", "-1/2"]]})
# A sparse cubic in 40 variables with rational coefficients, so a packed
# exponent key of F, base d + 1 = 4 per variable, runs to 80 bits.
_CUBIC_40 = json.dumps({"n_vars": 40, "ring": "R", "terms": [
    {"exp": [2 if v == i else 1 if v == (i + 1) % 40 else 0
             for v in range(40)], "coef": f"{i + 1}/{2 * i + 3}"}
    for i in range(40)] + [
    {"exp": [1 if v in (i, (i + 7) % 40, (i + 19) % 40) else 0
             for v in range(40)], "coef": f"-{i + 2}/7"}
    for i in range(0, 40, 3)]})
# A form of degree 12 in 3 variables: Hessians up to 26x26 from the
# polynomial route, with h(6) = 26 below the 28 monomials of degree 6.
_POLY_DEG_12 = json.dumps({"n_vars": 3, "ring": "R", "terms": [
    {"exp": [12, 0, 0], "coef": "1"}, {"exp": [0, 12, 0], "coef": "-3"},
    {"exp": [0, 0, 12], "coef": "2"}, {"exp": [4, 4, 4], "coef": "5"},
    {"exp": [7, 2, 3], "coef": "-1"}, {"exp": [1, 6, 5], "coef": "3"}]})
# The plane SI-sequence through 45 (d = 17, 45 points): 30x30 to 45x45
# Hessians whose dets run to about 950 digits.
_PLANE_45 = "1,3,6,10,15,21,28,36,45,45,36,28,21,15,10,6,3,1"
# Through 55 (d = 19): the Hessian scale d!/(d-2j)! runs to 57 bits.
_PLANE_55 = "1,3,6,10,15,21,28,36,45,55,55,45,36,28,21,15,10,6,3,1"

GOLDEN = [
    ("seq-si", ["seq", "check", "1,3,5,5,3,1"],
     0, "c6e6ec142e7f6c2362b7bb6570a3923c1d3f9bf5d6e6a84bf391657bb34b4729"),
    ("seq-not-si", ["seq", "check", "1,13,12,13,1"],
     0, "89a8d5f13aa553252071c78910e70ce22fe02fa378f23896c48fd761f69082c6"),
    ("seq-not-o", ["seq", "check", "1,2,5"],
     0, "6cb4a71d7e6b83a341e9ce1f5b41c294f24f1354ffa42872685c716611454a43"),
    ("seq-large", ["seq", "check", "1,4,10,15,15,15,10,4,1"],
     0, "468fd32d1474f72b5c64f24d0e06086fe177d7afbe3748b1b71c0fc4e50ac2a3"),
    # a ValueError document whose message holds a quote, a non-ASCII
    # letter and a backslash: the JSON escapes \", \u00e9 and \\
    ("seq-json-escapes", ["seq", "check", '1,"\u00e9\\'],
     2, "e342f98fa218c391c44004f5bbbceb7a540f292afd2e35a0eb3af106dce338e6"),
    ("analyze-poly", ["analyze", "--poly", _POLY_INT, "--seed", "3"],
     0, "3a2588ff8a2d3c9a4ce8c563705883d6a7e173e52122b4a8e92140b3502f6a88"),
    ("analyze-poly-rational",
     ["analyze", "--poly", _POLY_RATIONAL, "--seed", "5", "--attempts", "10"],
     0, "53e35eb3a45791f888f370dc63213c3017d8c556969bd092dc5e549f14f1d0a0"),
    ("analyze-poly-small",
     ["analyze", "--poly", _POLY_SMALL, "--seed", "1", "--attempts", "4"],
     0, "f9381cf429b687246222b0c0b9708f1cfeeea6bcfeeef37665c3c3f0d3c1ea69"),
    ("analyze-points-rational-d5",
     ["analyze", "--points", _POINTS_RATIONAL, "--alphas", "1/2,-3,5/4,2",
      "--d", "5", "--seed", "7"],
     0, "c082f95910133fb306279f3eeb33e553eaa6ee8df6429827eaf2c12416b76540"),
    ("analyze-points-rational-d4",
     ["analyze", "--points", _POINTS_RATIONAL, "--alphas", "1/2,-3,5/4,2",
      "--d", "4", "--seed", "2"],
     0, "74e60454e548834d4184ea6fffb92b16cbc5604603db71bef018e32bafa906c3"),
    ("points-generic",
     ["points", "gen", "--kind", "generic", "--n", "2", "--s", "7",
      "--seed", "4"],
     0, "6202ae7540ebad9e50a8e824641991e0c40055302f625c297ab58194fa0ee083"),
    ("points-collinear",
     ["points", "gen", "--kind", "collinear", "--n", "3", "--s", "5"],
     0, "5bb2f07943fc328738dfe66cb022f0414430ad75b56243f0cad7db82a8fb6caf"),
    ("points-two-lines",
     ["points", "gen", "--kind", "two-lines", "--s1", "4", "--s2", "3",
      "--share"],
     0, "34cf2bac2dd97371865eea14039c773cfb7472e5c95c55a5d6ddda4c982cb182"),
    ("points-rnc",
     ["points", "gen", "--kind", "rnc", "--n", "3", "--s", "8", "--seed", "6"],
     0, "6b9bb04533075a0a4eceb90990bc6b955fd800aeb65645579e202a0b3e81f888"),
    ("points-distraction",
     ["points", "gen", "--kind", "distraction", "--delta", "1,3,4,2"],
     0, "69813678e4f582bfa438595c13027924ca67647e4272804df9e3e1165cecf680"),
    ("verify-rnc",
     ["verify", "--theorem", "rnc", "--n", "3", "--s", "7", "--seed", "2"],
     0, "b5cee1c0b254f65751a42d01c33c114163d2815f42bb8afcadc1c36395e61312"),
    ("verify-conic",
     ["verify", "--theorem", "conic", "--s1", "3", "--s2", "2", "--seed", "8"],
     0, "6caa9d95eae069ed795f24520ebe7c779b6308621495934c83cca89565eebb23"),
    ("verify-tails-conic",
     ["verify", "--theorem", "tails", "--kind", "conic", "--tau", "4",
      "--off", "3", "--trials", "30", "--seed", "6"],
     0, "87bc041000adf61674440c3b43c92097faad136b545a2f9619a31e6376783816"),
    ("verify-tails-line",
     ["verify", "--theorem", "tails", "--kind", "line", "--tau", "4",
      "--off", "3", "--trials", "30", "--seed", "13"],
     0, "7c5844063701be305433762ec1852d37808bdfb67b73727b8e07b321716e8aad"),
    ("verify-families",
     ["verify", "--theorem", "families", "--m", "2,3", "--seed", "1"],
     0, "822c1d95afedc36342081df752743254a67991b26fe70dfa2670fd8775f9897a"),
    ("verify-s-minus-1",
     ["verify", "--theorem", "s-minus", "--s", "7", "--d", "6", "--j", "2",
      "--seed", "3"],
     0, "1d75b13d79a4a00c2f6a424178c339663afecd252297eed83c04912e62519b71"),
    ("verify-s-minus-2",
     ["verify", "--theorem", "s-minus", "--s", "8", "--d", "4", "--j", "2",
      "--kind-num", "2", "--seed", "8"],
     0, "d45c4c33024108e5f2175973e6bf9f356cc36aa48457e92da3c064198e1cfe31"),
    ("verify-rnc-d6",
     ["verify", "--theorem", "rnc", "--n", "2", "--s", "5", "--d", "6",
      "--seed", "4"],
     0, "e3693c0c5854edc20e377f07f645eecb239f62f133521fe333453ec2ab67fd74"),
    ("verify-conic-d8",
     ["verify", "--theorem", "conic", "--s1", "3", "--s2", "2", "--d", "8",
      "--eval-points", "3", "--seed", "5"],
     0, "fc5f59a034e30d40d1c05046c84d2e4a05256e508aa7c44b38c17f6f91be80ff"),
    ("verify-tails-line-d8",
     ["verify", "--theorem", "tails", "--kind", "line", "--tau", "3",
      "--off", "1", "--d", "8", "--trials", "10", "--seed", "6"],
     0, "dcaf3c7ce2cdc9adf142abcfc4883598c7719d3a63344ab56a82795f7fd9e060"),
    ("verify-rnc-d-below-2tau",
     ["verify", "--theorem", "rnc", "--n", "2", "--s", "5", "--d", "3",
      "--seed", "4"],
     2, "fa4be38cb6341134f91682e1b175a5ad80204196bd40c5edb1f889f021696f01"),
    ("verify-conic-d-below-2tau",
     ["verify", "--theorem", "conic", "--s1", "3", "--s2", "2", "--d", "3",
      "--eval-points", "3", "--seed", "5"],
     2, "fa4be38cb6341134f91682e1b175a5ad80204196bd40c5edb1f889f021696f01"),
    ("verify-tails-line-d-below-2tau",
     ["verify", "--theorem", "tails", "--kind", "line", "--tau", "3",
      "--off", "1", "--d", "5", "--trials", "10", "--seed", "6"],
     2, "4c4f3233cf1210825127c2e44fed5dd3cd1d476938631fab94f0920fe306dea8"),
    ("analyze-perazzo-no-witness",
     ["analyze", "--poly", _POLY_PERAZZO, "--attempts", "3", "--seed", "4",
      "--expect-slp"],
     1, "c4b11637340125b7fa0aa4780923060b33f9e2fefa7fb1c0c17130fd2a0ce6f2"),
    ("construct-trivial-1",
     ["construct", "--h", "1", "--seed", "0"],
     0, "f2d6f918802e613837ce9baa8025126923ccf0cb4642bec567a18445f79f40f4"),
    ("construct-trivial-2",
     ["construct", "--h", "1,1", "--seed", "1"],
     0, "8f03b96a798274ac0d838e9dc0f154ee2202a9c4f96cf7d24a467207307f8b50"),
    ("construct-trivial-3",
     ["construct", "--h", "1,1,1", "--seed", "2"],
     0, "d021e07ceb24f222ebc89028cf8cc2bde907f1b5846bcd0f9802b3c79bc9623d"),
    ("construct-trivial-4",
     ["construct", "--h", "1,1,1,1", "--seed", "6"],
     0, "64de0274500b2908d27d5f1d0d0dd5d48fda85fb27fec9b2e2ea7c75e445f2cb"),
    ("construct-trivial-5",
     ["construct", "--h", "1,1,1,1,1", "--seed", "10"],
     0, "3d13bc7251c6f3593fa68735fd38897a75459c5419ff7c424c3f7ff6bfc82700"),
    ("construct-trivial-6",
     ["construct", "--h", "1,1,1,1,1,1", "--seed", "24"],
     0, "733ddc12773f5afd67134ad73fbcce229180adf430e5568199028e90a5cfc9ab"),
    ("construct-trivial-7",
     ["construct", "--h", "1,1,1,1,1,1,1", "--seed", "38"],
     0, "0fa5c78d55957afa72ad74e2f9da3fbb2096a8a1b64b2621b2c18ecf9210f8e4"),
    ("construct-trivial-8",
     ["construct", "--h", "1,1,1,1,1,1,1,1", "--seed", "83"],
     0, "2ae4c765aa96acd30d2bab67b4f4a1b8179937d5130b1200cb0b2c30c128c15a"),
    ("construct-trivial-9",
     ["construct", "--h", "1,1,1,1,1,1,1,1,1", "--seed", "128"],
     0, "270a2714646ef6cc06401a0e20e9319249b8a4de818e0444894551ae3b6f3e17"),
    ("construct-plane-45",
     ["construct", "--h", _PLANE_45, "--seed", "0"],
     0, "b1861902cc457ddb649884a65e393ce90d064b44960d927e435f5124f3608eaf"),
    ("construct-plane-55",
     ["construct", "--h", _PLANE_55, "--seed", "0"],
     0, "4593bc450094db9fa9438c0c82629674049cfa9afc4033946b6e5f1da83e2314"),
    ("verify-families-m10",
     ["verify", "--theorem", "families", "--m", "10", "--seed", "0"],
     0, "34a2f0a499629843b348402e031632de8e37c3af05954f8b06fb25b5ac363a60"),
    ("analyze-poly-cubic-40-vars",
     ["analyze", "--poly", _CUBIC_40, "--seed", "11"],
     0, "6e5d799ac39a1162279192807152249ad759966e7cd7840b6ec5bc51012a2fa0"),
    ("analyze-poly-degree-12",
     ["analyze", "--poly", _POLY_DEG_12, "--seed", "12"],
     0, "dc767470c081eb46c96c4304f9f56a59b21170d4eb1e44d94744a55cdda36d19"),
    ("analyze-points-x0-plateau",
     ["analyze", "--points", _POINTS_X0, "--alphas", "1,2,-3,1/2,5,-7/3",
      "--d", "6", "--seed", "3"],
     0, "fd9e00cc022b93e5b0c7a1c1140baaf9ffea63d950815f9225cb3b6098bc556d"),
]


@pytest.mark.parametrize("argv, code, digest",
                         [case[1:] for case in GOLDEN],
                         ids=[case[0] for case in GOLDEN])
def test_stdout_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _digest(capsys, argv):
    code = main(list(argv))
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# s-minus-1 has tau = 3 <= ceil(6/2), so its bases come off the points;
# s-minus-2 has tau = 3 > ceil(4/2), so they come from catalecticants;
# the conic case checks its decomposition over the two line groups
POINT_HESSIAN = [case for case in GOLDEN if case[0] in (
    "analyze-points-rational-d5", "analyze-points-rational-d4",
    "verify-s-minus-1", "verify-s-minus-2", "verify-conic")]


@pytest.mark.parametrize("argv, code, digest",
                         [case[1:] for case in POINT_HESSIAN],
                         ids=[case[0] for case in POINT_HESSIAN])
def test_power_sums_take_the_point_side_hessian(capsys, monkeypatch, argv,
                                                code, digest):
    calls = []
    real = gorenstein.gram

    def spy(*args):
        calls.append(args)
        return real(*args)

    # every gorlef namespace that binds gram, not only its home
    bound = [module for name, module in sys.modules.items()
             if (name == "gorlef" or name.startswith("gorlef."))
             and getattr(module, "gram", None) is real]
    assert gorenstein in bound
    for module in bound:
        monkeypatch.setattr(module, "gram", spy)
    assert _digest(capsys, argv) == (code, digest)
    assert calls  # the Hessians were summed over the points


def test_benchmark_reference_replays(capsys):
    reference = json.loads(REFERENCE.read_text())
    mismatched = [key for key, entry in reference.items()
                  if _digest(capsys, key.split()) != (0, entry["sha256"])]
    assert reference and mismatched == []
