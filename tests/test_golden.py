"""Byte-identity of the command line on a fixed golden set.

Four inputs run through every subcommand via ``cli.main``: the vector
state from the README, a depth-3 vacuum, an n=2 period-2 extension built by
``extend`` from a mixed Haar+atom measure, and a dense mixture of that
extension with a vector state.  Two more extensions by the same measure, at
n=1 (depth 12, with a prefix) and at n=3 (depth 4), run through the four
checks and ``decompose``.  Each run is pinned by its exit code, the
SHA-256 of its stdout and the SHA-256 of every file it writes, so any change
to a printed digit, a key or the file layout shows up here.  The expected
values were recorded from the command line as it stood before the block
core of ``fock.py`` was shared between operators and states, except two
entries of the extension, which were recorded again when parallel rank-one
blocks began to sum rank-one: the smallest eigenvalues printed by
``check --what decreasing`` moved at rounding level (about -2e-16 to about
-4e-16), and ``.singular.json`` holds its rounding residue as rank-one
blocks instead of dense ones.
The ``eval`` entries of the last four expressions were recorded before the
word layer dropped its ``Word`` and ``Monomial`` objects, to pin how
products reduce, and the n=1 and n=3 extension entries before the extension
coefficients stopped being filled into a dense (K+1)x(K+1) table.

Runs happen inside the test's temporary directory with relative paths,
because ``extend`` and ``decompose`` print the paths they wrote.
"""

import hashlib
import json

import numpy as np

from fockstate.cli import main
from fockstate.density import BlockOperatorMatrix, StateHandle, fock_vector_state
from fockstate.fock import FockContext
from fockstate.measures import CircleMeasure
from fockstate.product_states import UnitVectorSequence, extend, rephase

README_STATE = {
    "n": 2,
    "K": 2,
    "blocks": [
        {"i": 0, "j": 0, "entries": [[1.0, 0.0]]},
        {"i": 1, "j": 0, "entries": [[0.5, 0.0], [0.0, 0.0]]},
        {"i": 1, "j": 1, "entries": [[0.5, 0.0], [0.0, 0.0],
                                     [0.0, 0.0], [0.0, 0.0]]},
    ],
    "metadata": {"exact_horizon": 2, "classification": "singular",
                 "trace_profile": [1.0, 0.5, 0.0]},
}

VACUUM_STATE = {"n": 2, "K": 3,
                "blocks": [{"i": 0, "j": 0, "entries": [[1.0, 0.0]]}]}

# Period 2 with a one-vector prefix; the cycle is not yet rephased.
SEQUENCE = {
    "n": 2,
    "prefix": [[[0.6, 0.0], [0.0, 0.8]]],
    "cycle": [[[0.0, 0.6], [0.8, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
}

# n = 1 with a two-vector prefix, and n = 3 with a period-2 cycle.
SEQUENCE_N1 = {"n": 1, "prefix": [[[0.6, 0.8]], [[0.0, -1.0]]],
               "cycle": [[[0.8, -0.6]]]}
SEQUENCE_N3 = {
    "n": 3,
    "prefix": [[[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]],
    "cycle": [[[0.0, 0.0], [0.6, 0.0], [0.0, 0.8]],
              [[0.0, 0.8], [0.0, 0.0], [0.6, 0.0]]],
}

MEASURE = {"haar_weight": 0.5,
           "atoms": [{"angle": 0.7, "weight": 0.3},
                     {"angle": 2.9, "weight": 0.2}]}

EXPRESSIONS = ("1", "v1 v2*", "(0.5+0.5i) v[1,2] v1* + 0.25", "v[1,2,1,2,1,2]",
               # Products that reduce by prefix absorption, by suffix
               # absorption and to zero, and the three imaginary spellings.
               "v1* v1 v2 v2*", "v[1,2]* v1 v2 v1*", "v2* v1 + 2",
               "(i) v1 v2* + (-i) v2 v1* + 2i v1* v1")


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path.name


def dense_mixture():
    """Half the depth-5 extension, half a vector state on levels 0..2,
    every block dense."""
    ctx = FockContext(2, 5)
    seq = UnitVectorSequence.from_payload(SEQUENCE)
    ext = extend(rephase(seq), CircleMeasure.from_payload(MEASURE), 5).matrix
    ext = BlockOperatorMatrix(ctx, {key: ext.block(*key) for key in ext.blocks})
    phi = [np.array([0.5]), np.array([0.5j, -0.25]),
           np.array([0.25, 0.0, 0.5, -0.5j])]
    mix = 0.5 * ext + 0.5 * fock_vector_state(ctx, phi)
    return StateHandle(mix, None).to_payload()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv, capsys, tmp_path, outputs=()):
    """Exit code, stdout digest and written-file digests of one command."""
    code = main(argv)
    out = capsys.readouterr().out
    files = {name: sha((tmp_path / name).read_bytes())
             for name in outputs if (tmp_path / name).exists()}
    return code, sha(out.encode()), files, out


def state_runs(state):
    """Every subcommand on one state file: (label, argv, written files)."""
    runs = [(f"check-{what}", ["check", state, "--what", what], ())
            for what in ("positivity", "decreasing", "essential", "singular")]
    stem = state.removesuffix(".json")
    runs.append(("decompose", ["decompose", state, "--out-prefix", stem],
                 tuple(f"{stem}.{part}" for part in
                       ("essential.json", "singular.json", "profile.csv"))))
    runs += [(f"eval-{k}", ["eval", state, expr], ())
             for k, expr in enumerate(EXPRESSIONS)]
    return runs


def golden_runs(tmp_path, capsys):
    """Run the golden set; returns {label: (code, stdout sha, file shas)}
    plus the stdout of each run for failure messages."""
    seq = write_json(tmp_path / "seq.json", SEQUENCE)
    measure = write_json(tmp_path / "measure.json", MEASURE)
    plan = [("extend", ["extend", seq, measure, "--depth", "5",
                        "--out", "ext.json"], ("ext.json",))]
    for name, payload, depth in (("ext1", SEQUENCE_N1, 12), ("ext3", SEQUENCE_N3, 4)):
        path = write_json(tmp_path / f"{name}-seq.json", payload)
        plan.append((f"extend-{name}", ["extend", path, measure, "--depth",
                                        str(depth), "--out", f"{name}.json"],
                     (f"{name}.json",)))
        # The four checks and decompose; the expressions are written for n = 2.
        plan += [(f"{name}:{label}", argv, outputs)
                 for label, argv, outputs in state_runs(f"{name}.json")[:5]]
    for name, payload in (("readme", README_STATE), ("vacuum", VACUUM_STATE),
                          ("mixture", dense_mixture())):
        write_json(tmp_path / f"{name}.json", payload)
    for name in ("readme", "vacuum", "ext", "mixture"):
        plan += [(f"{name}:{label}", argv, outputs)
                 for label, argv, outputs in state_runs(f"{name}.json")]
    results, stdouts = {}, {}
    for label, argv, outputs in plan:
        code, out_sha, files, out = run(argv, capsys, tmp_path, outputs)
        results[label] = (code, out_sha, files)
        stdouts[label] = out
    results["mixture:input"] = sha((tmp_path / "mixture.json").read_bytes())
    return results, stdouts


GOLDEN = {
    'extend': (0, 'a02e20a0f89a99ae1e0a0663ae9e8587e11b40671a565240b8b68e4bbfccac8f', {
        'ext.json': '1f32144390335851b4e97369a391ca9ca8c007d1f9c78836144853621549ee78',
    }),
    'extend-ext1': (0, '5f373bc8abc6197729a096755336e7bca7df3919f26329fdad5a3cd1f1cb29a4', {
        'ext1.json': 'c157597c8ed83799437c282fd5d2be16a13e007326eddc57f379ccbfa317981f',
    }),
    'ext1:check-positivity': (0, 'bf8582fb9af030008a69d4402a8084a5115b64f0036b189b9e03f78cef6858c9', {}),
    'ext1:check-decreasing': (0, '8d1403df14f2ec6930b61fc6a204030c73f4b901e4d00c9fca9d7b856c4f04c2', {}),
    'ext1:check-essential': (0, '0297478c3eb156a4122bd680f5403b74c4e9fb3aaf9ccd0888637b3aa37b0029', {}),
    'ext1:check-singular': (1, '9b6510141ea08b51779411dea650a4deac105ac49395c3f5d0ff0a99221c0099', {}),
    'ext1:decompose': (0, 'c1a5865c575add141d0af3713631b3095b482c73fad9b4f5f71617344bebf2bf', {
        'ext1.essential.json': '61b1aa4e0c936831c699efa677b87cbb1e310f443bdb19a15718295aaf7253db',
        'ext1.singular.json': 'd50c0f2744e068e8cb0052f4ccfc8611089013294b64db5673cb8f9e515df85d',
        'ext1.profile.csv': '0289a80ddfca9ea0181c222778ed25b1a5628a5e847dc871bc5a2372b23c17d5',
    }),
    'extend-ext3': (0, '11737e8d3d53e61f9119d97e90aa567280ed1331945a9f2fd1fc5f5b19e21ef7', {
        'ext3.json': 'f683e51e4a394ba846d9cc89cac3a1e55a8240fd94bf3a0aaf6460623aae5ad1',
    }),
    'ext3:check-positivity': (0, '75a8b73b7dd1e1fc07ef830d046d26f262b7ccaf098cf3dc54aa1681d6f2157b', {}),
    'ext3:check-decreasing': (0, 'f90fdcfc5d20e7bce1962e7e20a40ecaefb070c5d8c37c036bebaefaa31e47a7', {}),
    'ext3:check-essential': (0, '53b5a01aa0448178f58596e4171015f47fe8b9a514256f78cfd9cc48a74d524f', {}),
    'ext3:check-singular': (1, 'dfac30f14f82a33c9376c9aee9a4f0f2f43c80865e1287f0049f4859746e3b72', {}),
    'ext3:decompose': (0, 'a69fff53e76bc9819a4529ffa3c92f3af66ad508f2aa607db04e09f49533f4e2', {
        'ext3.essential.json': 'cd6efc0264f88921988198a38d9b51a79b50a201f1b5eb2f08991783deb57412',
        'ext3.singular.json': 'e47ec8d495246194ebc0b668d1602d91b6683361e08baea3a1b8d5b7b3ad756d',
        'ext3.profile.csv': 'c79d7880b7d17e2b82a3089a8e66b8a3ab931996303d272849ecdb0bc75dfa0b',
    }),
    'readme:check-positivity': (0, '47b94c7cb4a23b5acb50a5a9499ec8f9ec39ac7feff4cd972cfc431bec26456b', {}),
    'readme:check-decreasing': (0, 'e3dcdcdba3c99278e750ceac957cc3c20e471becee683660b84986e1757d2af0', {}),
    'readme:check-essential': (1, '05b5d606970d8513e05968a479872d9343de91ddcadfcb9e770f351cc3c61742', {}),
    'readme:check-singular': (0, '6c95462573cc23a360b3e9a0a537895cdc2d1c0b6b7d30b0adf927cc6fa8235f', {}),
    'readme:decompose': (4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {}),
    'readme:eval-0': (0, 'f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7', {}),
    'readme:eval-1': (0, '0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101', {}),
    'readme:eval-2': (0, 'b7dcf3206aee4749d030f1b5ce273d26975dffb8caef70074273afe5a36e5638', {}),
    'readme:eval-3': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {}),
    'readme:eval-4': (0, '0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101', {}),
    'readme:eval-5': (0, '46779aea709043761a1ed7a2db759fe578059775ddedeb190952078b042b3f0c', {}),
    'readme:eval-6': (0, '4516f6eaaa675488778d6ca333df14bc68c27fb7d7b8015073220d4571aa9c51', {}),
    'readme:eval-7': (0, '665ae877edd92e755fe8504188724e0438a217c62edad817b262fb85e6289a88', {}),
    'vacuum:check-positivity': (0, '85e6c57e6ab0168a49e2290f1ceec60febd0481d1e30468ffaea8e919e962967', {}),
    'vacuum:check-decreasing': (0, '4660ebb7762675d3f1a7d2d387a21ccbe08537f58b9d3a3dd1a65cb7213fec51', {}),
    'vacuum:check-essential': (1, '5b33b605f2abd2306daf9176405a5c560c675cb9c31517a8736e5fb9b4b6d2cc', {}),
    'vacuum:check-singular': (0, 'eb6a201f306286b7d6f00753235bbb31c16d54d83a252624159e584bed8242d9', {}),
    'vacuum:decompose': (0, 'c2db3a8e35d3089d58716331f86cb3f3340ffa8a30c3b23ce0206f27dd29b67b', {
        'vacuum.essential.json': '9bde7dd8f80b7188c3c4fe4849fe6daef68819ee6d9cc9aeece1a4a504ab2b1b',
        'vacuum.singular.json': '81e6fdc45f9ecf0f98e95109efa1a5785215a2d52fcc44347b767abcdb3bcb0d',
        'vacuum.profile.csv': '44bcabd6ab5349d60e9a5cc5e85491d091b12b634adc3bf8dd578f344fba9a4d',
    }),
    'vacuum:eval-0': (0, 'f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7', {}),
    'vacuum:eval-1': (0, '0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101', {}),
    'vacuum:eval-2': (0, 'b7dcf3206aee4749d030f1b5ce273d26975dffb8caef70074273afe5a36e5638', {}),
    'vacuum:eval-3': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {}),
    'vacuum:eval-4': (0, '0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101', {}),
    'vacuum:eval-5': (0, '0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101', {}),
    'vacuum:eval-6': (0, '4516f6eaaa675488778d6ca333df14bc68c27fb7d7b8015073220d4571aa9c51', {}),
    'vacuum:eval-7': (0, '665ae877edd92e755fe8504188724e0438a217c62edad817b262fb85e6289a88', {}),
    'ext:check-positivity': (0, 'c0ea0a7426d4c606396ae166e05363a196922a2bc47573ee9e8e2344b25b6e7c', {}),
    'ext:check-decreasing': (0, '6f896ac52ccad493ac456af6cb9c5b197671800dafacf632fd101c41fbf6dee8', {}),
    'ext:check-essential': (0, 'b4c3421d298ff085f1002c338fa03b95bfaef5b0d745eca7df0991162ac378c2', {}),
    'ext:check-singular': (1, '19952e4da946ab3e94dbb03a21a018565fabac6a4ebba9234b9cebbd3f1d611b', {}),
    'ext:decompose': (0, '5771379855d12c348862fb341f41dcf56b2ea2a42d5c2296909542cda22c6e30', {
        'ext.essential.json': '9d6098787f2af7ced7b11d2a6faccac82bf22932aca4b22746dc4ab49ce10d39',
        'ext.singular.json': '5ab30b4fa69e9602b7a941c77ecee7e7477aa19b6f22e4b682ac2b2683594ad0',
        'ext.profile.csv': '172417c02fb85a2b7e899d828527f7df15be131cd6b49478f9c2ec04d44005d2',
    }),
    'ext:eval-0': (0, 'f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7', {}),
    'ext:eval-1': (0, 'ebb9ce382857f661cee1bb0264844109fe1e432f1c3498d298d7c1404ac8cd15', {}),
    'ext:eval-2': (0, 'b7dcf3206aee4749d030f1b5ce273d26975dffb8caef70074273afe5a36e5638', {}),
    'ext:eval-3': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {}),
    'ext:eval-4': (0, '3011ec85f6ca700054c38f8b7f8dbfbb719378ff47eba895c3ed1359290ffcef', {}),
    'ext:eval-5': (0, '0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101', {}),
    'ext:eval-6': (0, '4516f6eaaa675488778d6ca333df14bc68c27fb7d7b8015073220d4571aa9c51', {}),
    'ext:eval-7': (0, '788aecdf6876937ea083a299cddaa1e9b9d566c673903efde41e88785cb98f98', {}),
    'mixture:check-positivity': (0, '34f7c282c3f9b009e4d738bfbb2ae1293e3b74738612f5453e78a8bf65c4b3fd', {}),
    'mixture:check-decreasing': (0, '38966bed648ce9a6b47d1426eb90319f9a37e8958ae76fb868d0270f252680f9', {}),
    'mixture:check-essential': (1, 'be5499655c4353833bde2fa6c48f69c1cb1d9e4e967abad0a1aa3a4ea467f0c6', {}),
    'mixture:check-singular': (1, '5d337604d169c81716a592679a7b4ae1786e04576b999a741059dba42e938a7d', {}),
    'mixture:decompose': (0, 'ec503af29818c1c0645edee2ba6d3589cfce8bec51c7aee3bfd1625541bf3553', {
        'mixture.essential.json': '158ab0d6fd720cb1965043084f440f6288f6498e560707cbd11464208cca4d9d',
        'mixture.singular.json': '29946500bc9783bb431b4f926555929eb75979ab6bf92ca9078ad78eebcce592',
        'mixture.profile.csv': '7a8913834d95d7c1a82ca044090727dafaf1864fff6cfa12ff8ad7f5f1cfe822',
    }),
    'mixture:eval-0': (0, 'f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7', {}),
    'mixture:eval-1': (0, '499c01edc1af72930f911486952eec49fc2654708f0d577b0e985e96b360ba08', {}),
    'mixture:eval-2': (0, 'b7dcf3206aee4749d030f1b5ce273d26975dffb8caef70074273afe5a36e5638', {}),
    'mixture:eval-3': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', {}),
    'mixture:eval-4': (0, '360c5b0828c2c229ff6fb2be070ee85cc85e55cf2847d60d187986c0cced2eee', {}),
    'mixture:eval-5': (0, '8e296a0685a97365e21e9c4641a8ef05d70a888410993eba305decaba86a359c', {}),
    'mixture:eval-6': (0, '4516f6eaaa675488778d6ca333df14bc68c27fb7d7b8015073220d4571aa9c51', {}),
    'mixture:eval-7': (0, '9db4284aa511f2c9d1a9ef88924bcef8e55666aedacc8db30ef9506665dbeb13', {}),
    'mixture:input': '576b59b4f2d06298ade025b188fb30af6e2eb2ea5bba19807078386bfd4eb877',
}


def test_golden_set_is_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    results, stdouts = golden_runs(tmp_path, capsys)
    assert set(results) == set(GOLDEN)
    for label, expected in GOLDEN.items():
        assert results[label] == expected, (label, stdouts.get(label))
