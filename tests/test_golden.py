"""Golden output: byte-identical results and instances.

Each digest below is the sha256 of what the code produced when it was
recorded: the `harness.emit` CSV of a small run of every algorithm, and
the edge list plus `InstanceMeta` of every instance family, built from
its preset and from one hand-written spec.  The graph grid hashes every
CSR array (so in-list and IN-SORTED orders too) of the benchmark's
instances, of every family at a size with a partial last relay group,
and of padded specs whose padding block runs through several offsets.
The exact grid hashes the ground-truth vectors pi(s,.), pi(.,t) and
pi(.) of the benchmark's instances and of a relay fan.
A refactor must leave every digest unchanged.  A changed digest is a change to an algorithm or to a
generator and has to be called out in CHANGES.md.
"""

import functools
import hashlib
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest

from pprquery import (Capabilities, GraphError, OracleHandle,
                      exact_pagerank, exact_single_source,
                      exact_single_target)
from pprquery.bidir import backward_phase, derive_params, single_pair_ppr
from pprquery.harness import ALGORITHMS, ExperimentConfig, emit, run_experiment
from pprquery.instances import (FAMILIES, InstanceSpec,
                                SpecConstraintViolation, generate,
                                parameter_presets)
from conftest import relay_fan_graph


def _preset(family, n=16, m=64):
    return {"family": family, "n": n, "m": m, "preset": True}


# algorithm -> ExperimentConfig fields besides algorithm; each run asks
# for exactly the capabilities its algorithm requires
RUNS = {
    "monte_carlo": {"instance": _preset("sp_avg"), "deltas": [0.1, 0.05],
                    "trials": 2},
    "bippr": {"instance": _preset("sp_avg"), "deltas": [0.05], "trials": 3},
    "power_iteration": {"instance": _preset("st_avg_full", 64, 512),
                        "deltas": [0.05], "trials": 2},
    "approx_contributions": {"instance": _preset("st_avg_full", 64, 512),
                             "deltas": [0.05], "trials": 2},
    "rbs": {"instance": _preset("st_avg_full", 64, 512),
            "capabilities": ["in_sorted"], "deltas": [0.05, 0.01],
            "trials": 3},
    "st_jump_mc": {"instance": _preset("st_avg_jump", 8, 16),
                   "capabilities": ["jump"], "deltas": [0.1], "trials": 2,
                   "multipliers": {"c_walks": 1.0}},
    "st_bidir_jump": {"instance": _preset("st_avg_jump", 8, 16),
                      "capabilities": ["jump"], "deltas": [0.05],
                      "trials": 2},
    "single_pair_ppr": {"instance": _preset("sp_avg"),
                        "capabilities": ["in_sorted", "adj"],
                        "deltas": [0.1, 0.03], "trials": 3,
                        "multipliers": {"c_ns": 2.0, "c_tau": 0.2}},
    "sn_adaptive": {"instance": _preset("sn_avg_full", 64, 512),
                    "capabilities": ["in_sorted"], "trials": 3},
    "sn_avg_jump": {"instance": _preset("sn_avg_full", 8, 32),
                    "capabilities": ["jump"], "trials": 2},
    "sn_avg_full": {"instance": _preset("sn_avg_full"),
                    "capabilities": ["jump", "in_sorted", "adj"],
                    "trials": 2},
}

RUN_DIGESTS = {
    "approx_contributions": "1cb3fd16b671fdbffec56a0f36d2b88c3f91989306de536c58d6a156bfb38110",
    "bippr": "e54439087d4f2d39369ce82c58a964221e39aa7bfed960fea1288636c7c3be0b",
    "monte_carlo": "e8ca996da4e7be4a6b2582c7ac83f667eb0c0fb8522bf15c199b1f7e9a0496e5",
    "power_iteration": "acb7d4e9bf9360f6d04dd5a72dbb6e544cac7c3e83cbea4548da52709044fa32",
    "rbs": "5ba87ffb9315a7df5de4e8275f7677f4a95517bb8cf12e02cbbceb9fb239bad4",
    "single_pair_ppr": "aed5fbe377f00a13bfdc5db5d86ed85ed7e3d88c08d816922f9f4c5ceb867b11",
    "sn_adaptive": "28c9365006f6a2931a58a5dea30f6b3d7a221c4259c5d71fa32a1b9e0e01c21f",
    "sn_avg_full": "a805b191797eb20db9035ceebfd57eace40b37503bdb06657bb360b94191c7b9",
    "sn_avg_jump": "f111fee6e0b75013977561e1a6e88d2b7899a56d207b0f73d431f937bcbf1cbd",
    "st_bidir_jump": "fc5db57ab31f12c59098fb31dd6a47ce0ba30dca61f69ca30db5ffb976589183",
    "st_jump_mc": "ab6fcee2f68f6fc4c03c7112693bb0d2d0f5d7dd427208769ae04c9a933277ca",
}

# family -> hand-written InstanceSpec fields (swap, padding, flipped upper
# layer and the output-size variants) and swap edges that replace the
# family's own (see spec_and_swap)
SPECS = {
    "folklore_pair": {"L": 3, "swap": True},
    "sp_worst": {"n": 5, "m": 12, "L": 2, "D": 3, "swap": True,
                 "swap_edges": ((2, 4), (7, 9)), "padding": True},
    "sp_avg": {"n": 7, "L": 3, "D": 2, "flip_upper": True, "swap": True},
    "st_worst_adj": {"n": 5, "D2": 3, "swap": True},
    "st_worst_full": {"n": 5, "m": 9, "D": 2, "swap": True, "padding": True},
    "st_avg_adj": {"n": 7, "L": 3, "D": 2, "D2": 3, "swap": True},
    "st_avg_jump": {"n": 7, "L": 2, "D": 3, "D2": 2, "swap": True},
    "st_avg_full": {"n": 6, "L": 4, "D": 2},
    "sn_avg_adj": {"n": 5, "D": 2, "swap": True},
    "sn_avg_insorted": {"n": 4, "swap": True},
    "sn_worst_full": {"n": 5, "m": 16, "L": 2, "swap": True},
    "sn_avg_xor": {"n": 7, "L": 3, "D": 2, "D2": 3, "flip_upper": True,
                   "swap": True},
    "sn_avg_full": {"n": 6, "m": 10, "L": 2, "D": 3, "swap": True,
                    "padding": True},
    "output_size_st": {"n": 4, "variant": "worst"},
}

PRESET_DIGESTS = {
    "folklore_pair": "2e3f013189b15b95679be0d60fc37e22cdd4832cb44a0e823dd7f44128cd3d5a",
    "sp_worst": "2864bbea67869f61808294397d6f5bcfbf6262a6cb39d9c54849c8bb05e98d16",
    "sp_avg": "1163f39c35c879e0c025854f915e429ed45ea0c0ef4b0b69934710b3ebd1be3e",
    "st_worst_adj": "a2e837ececf21fb7fd9fcc2268f4e2a9ffea14fa23f22f6a76e021f6c669dfab",
    "st_worst_full": "72376c9453d01816c8993b158b29d3b5f033bc567ee63267779c26b95612f9bd",
    "st_avg_adj": "c0474c2cf2366a22b4ab6007ea3f5038d68330a7acd918ae80c89d733c23e3d8",
    "st_avg_jump": "1fd5890037433788b7a5dd32a9a68b0b21262f698b4ea421871d1da0d1a9dcc4",
    "st_avg_full": "caf2edf284535cad5f948c2acba69e4e6ec71de52aecba7ef45ca6864dab8238",
    "sn_avg_adj": "78ed317cbb697e8cb80d4cf8a79f94bf56e051d5832b5761029aeead98358590",
    "sn_avg_insorted": "1fba6e115482e8ac660dbef652ab23f3d5ccff8b056cf8f127520864389c0ce9",
    "sn_worst_full": "9164413e20385d71f6069eb3f4ac0b579b1d6f65b3d3a0b7f2f56ab1be2a8595",
    "sn_avg_xor": "f5b817d10a6d02893e8b50973cd6e7bbd3c9b816377cedc0457edb6e9551df40",
    "sn_avg_full": "5f366887b6f7aa38c80432242dad4da5b12cbbeae1e393b132f4fafc86c69c94",
    "output_size_st": "49bdd7d8c37657afa44dc9bb728cb33a82461543fd36e783c3f715194db65850",
}

SPEC_DIGESTS = {
    "folklore_pair": "e14b33c8d93a95dd8999415f624dca1a7cf925447af12cd925b66b8400533eb6",
    "sp_worst": "da7afea7b5fbb9ad67148f07f9c517cc1230c79393d2c2693559af8ba19bbdb8",
    "sp_avg": "681313e336f6995ef34736027b467de4b5add2186271eed53203e4ef6b45de37",
    "st_worst_adj": "cb49a4a34446f5ad44c96063a2b6647356fc340f5a38e7a515262d53d388aa9b",
    "st_worst_full": "a615619294f034d2a4ccd995231e538f5b6953240edc00c966f69a920cf76b14",
    "st_avg_adj": "574d9159390206ca4be410f0d39075715090f47b413df9d8dae4ceaca0f82737",
    "st_avg_jump": "589e320de15e64cf76ab4d0b19b7e16ee555a82e38ddc1538e3e55aa31d01b37",
    "st_avg_full": "63f50bedf73d0e29d7bed9b458964c7c2b531973fc9fc89611e9d794080aa683",
    "sn_avg_adj": "daff6842b3b3a9aad058debafb9436f9b8fefb43aae019cbe5ab276a0ef91aee",
    "sn_avg_insorted": "8e19ce9d8a3ad7ef32a7606cb2b42fb8688a491d45a72b0355c5666d284a38bc",
    "sn_worst_full": "8847d88deaab4f3a679ca551555530e15eae7e5dd6916a8cb6716a0a12a70ea0",
    "sn_avg_xor": "67e1c0851f06f5ab15fe1a36b4901e95959d9cebd4f887af91fdb6b8e9871300",
    "sn_avg_full": "d33db1b98a3ea28ea14b9e24eb533b0955816155e86711a731d328a52ee23c8c",
    "output_size_st": "66a6f4e0b1265e190fecc4fc3af1264b1264a7c7c3d30961233ece55cec896a8",
}


# backward_phase state and single_pair_ppr estimates on a relay fan
PUSH_STATE_DIGEST = \
    "4884da54de0334c89d7ae5280a07a735e27966838a12116a5d86e1349da0c870"


# name -> parameter_presets(family, n, m, delta, 0.2) arguments
GRID_PRESETS = {
    "mc_walk": ("sp_avg", 4096, 32768, 2.0 ** -6),
    "bidir_pair": ("sp_avg", 4096, 32768, 2.0 ** -8),
    "target_large": ("st_avg_full", 20000, 400000, 1e-4),
    "single_node": ("sn_avg_full", 64, 512, 0.1),
    # n = 53 is prime, so every relay family with 1 < L < n ends in a
    # partial group (sn_avg_adj and sn_avg_insorted relay one group of n)
    **{f"{family}_53": (family, 53, 424, 0.005) for family in FAMILIES},
}

# name -> InstanceSpec fields: padding blocks that need more offsets
# than one (m_pad >= 3 n_pad), end mid-round, or wrap the offset cycle
# back to 1 (a duplicate edge), and a swap edge that is not there
GRID_SPECS = {
    "sp_worst_pad": {"family": "sp_worst", "n": 4, "m": 14, "L": 2, "D": 2,
                     "swap": True, "padding": True},
    "sn_avg_full_pad": {"family": "sn_avg_full", "n": 6, "m": 23, "L": 2,
                        "D": 3, "swap": True, "padding": True},
    "st_worst_full_pad": {"family": "st_worst_full", "n": 3, "m": 9, "D": 2,
                          "swap": True, "padding": True},
    "st_worst_full_pad_wrap": {"family": "st_worst_full", "n": 3, "m": 10,
                               "D": 2, "swap": True, "padding": True},
    "output_size_st_pad_wrap": {"family": "output_size_st", "n": 2, "m": 6,
                                "variant": "worst", "padding": True},
    "sp_worst_missing_swap": {"family": "sp_worst", "n": 5, "m": 12, "L": 2,
                              "D": 3, "swap": True,
                              "swap_edges": ((2, 4), (7, 2))},
}

GRID_DIGESTS = {
    "mc_walk": "8370181f256a8b47df9048c58defd01c819554f99eb01db54a280d8fbecee8a6",
    "bidir_pair": "585bab7aca65c66b5875343049d9cbe73b249fdc6d0b3cc5148d230711b440c2",
    "target_large": "fa6d82801b8569651a44b12fab6d050d2a7f212343dcf83917147f97fd8d4516",
    "single_node": "6d6fd8f58129102c635db7205610fdfd40503280612b44d98f1a6de481b3d95f",
    "folklore_pair_53": "3dd90a4e1c5f7d1520c9e0284d110cc01b95ade11826cae582f1200c035c776e",
    "sp_worst_53": "a5c50df26163e5d3eddfaa4739edcbf2b3059df5e9d0fce2735e1bb98f3d73b0",
    "sp_avg_53": "8a730a808e842c06f94ab6122a7a95aad28424e2203c55ce730031bf5ad894b1",
    "st_worst_adj_53": "ef4df2f04a9d21317968f1cf194b041faa7ebe29537e36223c9a123cfcfdaa55",
    "st_worst_full_53": "a204b3aa05af03c1236a9a54671cdf92cfd433603738cde088a8657cf71adc54",
    "st_avg_adj_53": "426d8096f11b882c20d3d28df12637ebcac0a29d4deae13a693e98280b30044a",
    "st_avg_jump_53": "534d424f06bd88f9ef1b83fb0343c5ee95c0eb7613271db48ade519e21724473",
    "st_avg_full_53": "bede726524d3f8aaa34b9aefa1325e1071603c1e3d18c8c9727af08a5cca6881",
    "sn_avg_adj_53": "c8c67ddbc329ca5e989251b841a70a875d5b455e1d7499d6017e019e8327d555",
    "sn_avg_insorted_53": "6949b97a4b4af3533d76a92e4304dc45257ecaf3233aa550b933fa347014a458",
    "sn_worst_full_53": "3a38731656f55c5774e451797f95f9b50b84391418e9e63823724782a7d05d37",
    "sn_avg_xor_53": "53186f10d4ab2034b1d76dcd020579b93d25cf072ffd0920f857ffd281aa2c44",
    "sn_avg_full_53": "9e499e132753cd7aba6b5117be3150decda76a4c222cf77d2f1d27c4340c76a4",
    "output_size_st_53": "25c2e564600be91ae56c06c7a625990e627ec5fbc405d5e9461dc06ad7aac78f",
    "sp_worst_pad": "3a8e107c385fd67885eef5abce4bfd3da146186d1f6ec4b640353b6ab87ba0d5",
    "sn_avg_full_pad": "b1e86537b26d80868d0ceeccbf3cb70971a1c3fd6dc8977b5fbe5a7169fa15a2",
    "st_worst_full_pad": "77ddebd6fddb592912fee33c7f8393154676c811a77948877fa720aba6ccfb2e",
    "st_worst_full_pad_wrap": "bde9a212292103b88455fa5fa1e143fe7f38d76c90f9a8328c615ce468219ccc",
    "output_size_st_pad_wrap": "59ff5317a9dd50c59f22ec767e4240b02c4fccc2f4d63289b070518eceb1eed4",
    "sp_worst_missing_swap": "44974931893362c14e03e0bd5a788a4999132ee8f314199071376ee566ade6f9",
}

# name -> sha256 of the float64 bytes of each exact solve at alpha 0.2 on
# the GRID_PRESETS graph (the relay fan: relay_fan_graph() with s its
# first in-neighbor tier node); s is 0 where the instance has none
EXACT_DIGESTS = {
    ("mc_walk", "source"): "ef5957cc3e27bf71b17f4fbee3a78899864729863377d39bd75b216b1441442e",
    ("mc_walk", "target"): "f051d477e3521d07daf6c326e8bd97afb77d1c648f84c1f2e833d1cff95fc72b",
    ("mc_walk", "pagerank"): "b2c664e05cdf92c022e66a0824bc8162d48b9d5bdbbc33dbcc8eac0e0d6a750c",
    ("bidir_pair", "source"): "53b387176d976ea1f0da458ef4d4e65689245e6c2d88ff8d45debc783d6d7cdb",
    ("bidir_pair", "target"): "c9af11e75ea3e24fa636fd2b8c962fed102916fc5cd0f0c98b010b13ae9576ed",
    ("bidir_pair", "pagerank"): "a0572307164f7262180de13e43cd3e4194bcb82e0e3c27e4fbeb8383c5eec899",
    ("target_large", "source"): "488097d66c4454cc4bdaba5ac92545c0394640f812e1e5a352bf7b6821ba9480",
    ("target_large", "target"): "4a6397b48d25b94ea9ae23711672093d985a8a524efe8b84b93d754c6c9f55ce",
    ("target_large", "pagerank"): "393f7d4a04f5778e9ab2e015edb141d45e3d8dbe4248539019133f6766cb1ada",
    ("single_node", "source"): "a1f53f64eaecbc576f4bd1eee196ce3a26d3a29e6409d34528177089b3752326",
    ("single_node", "target"): "e970777c360b7cbb5fe94acc66073d7e36b29b8ef2cfd60b87962b8a81b46b7e",
    ("single_node", "pagerank"): "b2e429d8d081f1bf78b7f9f0ad79d67c2a2d0a321da779168e95f0f7b4ddf98a",
    ("relay_fan", "source"): "c0b256a6da6d847db9f577b1d0ce17a574a1b3dcbd1b375f1c9a237b0b372807",
    ("relay_fan", "target"): "6ae1f9f8eac648adf792ffc243276317d512fb5f64409a905b7dc6932792cdef",
    ("relay_fan", "pagerank"): "8e2af84aed86736f3f3b36621d3b3b31af7be9d693d551367ac72480a7c195c8",
}

CSR_ARRAYS = ("out_ptr", "out_nbrs", "out_sorted", "out_deg", "in_ptr",
              "in_nbrs", "in_sorted", "in_deg")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_digest(algorithm, tmp_path):
    cfg = ExperimentConfig(algorithm=algorithm, master_seed=11,
                           **RUNS[algorithm])
    path = emit(run_experiment(cfg), "csv", tmp_path / f"{algorithm}.csv")
    return _sha(path.read_bytes())


def spec_and_swap(fields):
    """(InstanceSpec, swap edges or None) of a SPECS or GRID_SPECS entry,
    whose "swap_edges" entry is no spec field."""
    fields = dict(fields)
    swap_edges = fields.pop("swap_edges", None)
    return InstanceSpec(**fields), swap_edges


def generate_swapping(spec, swap_edges=None):
    """generate(spec), its builder's designated swap edges replaced by
    swap_edges when given."""
    if swap_edges is None:
        return generate(spec)
    family = FAMILIES[spec.family]

    def builder(spec):
        edges, node_count, meta = family.builder(spec)
        meta.swap_edges = swap_edges
        return edges, node_count, meta

    with mock.patch.dict(FAMILIES,
                         {spec.family: family._replace(builder=builder)}):
        return generate(spec)


def _meta(meta):
    """asdict(meta) with its ranges as lists, the form the digests were
    recorded in."""
    fields = asdict(meta)
    fields["roles"] = {k: list(v) for k, v in meta.roles.items()}
    fields["target_group"] = list(meta.target_group)
    return fields


def instance_digest(spec, swap_edges=None):
    g, meta = generate_swapping(spec, swap_edges)
    return _sha(repr((g.node_count, g.edges(), _meta(meta))).encode())


def graph_digest(spec, swap_edges=None):
    """sha256 of node_count, every CSR array and the meta, or of the
    error the spec raises."""
    try:
        g, meta = generate_swapping(spec, swap_edges)
    except (GraphError, SpecConstraintViolation) as e:
        return _sha(repr((type(e).__name__, str(e))).encode())
    h = hashlib.sha256(repr((g.node_count, _meta(meta))).encode())
    for name in CSR_ARRAYS:
        arr = getattr(g, name)
        h.update(f"{name}:{arr.dtype}:{arr.size}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@functools.cache
def exact_graph(name):
    """(graph, s, t) of an exact-grid entry."""
    if name == "relay_fan":
        g, t = relay_fan_graph()
        return g, 48, t
    g, meta = generate_swapping(*grid_spec(name))
    return g, meta.s or 0, meta.t


def grid_spec(name):
    """(InstanceSpec, swap edges or None) of a grid entry."""
    if name in GRID_PRESETS:
        return parameter_presets(*GRID_PRESETS[name], 0.2), None
    return spec_and_swap(GRID_SPECS[name])


def test_matrix_covers_every_algorithm_and_family():
    assert set(RUNS) == set(ALGORITHMS)
    assert set(SPECS) == set(FAMILIES)


@pytest.mark.parametrize("algorithm", sorted(RUNS))
def test_run_csv(algorithm, tmp_path):
    assert run_digest(algorithm, tmp_path) == RUN_DIGESTS[algorithm]


@pytest.mark.parametrize("family", FAMILIES)
def test_preset_instance(family):
    spec = parameter_presets(family, 16, 64, 0.01, 0.2)
    assert instance_digest(spec) == PRESET_DIGESTS[family]


@pytest.mark.parametrize("family", FAMILIES)
def test_spec_instance(family):
    spec, swap_edges = spec_and_swap({"family": family, **SPECS[family]})
    assert instance_digest(spec, swap_edges) == SPEC_DIGESTS[family]


@pytest.mark.parametrize("name", [*GRID_PRESETS, *GRID_SPECS])
def test_graph_grid(name):
    assert graph_digest(*grid_spec(name)) == GRID_DIGESTS[name]


@pytest.mark.parametrize("name,mode", list(EXACT_DIGESTS))
def test_exact_grid(name, mode):
    g, s, t = exact_graph(name)
    vec = {"source": lambda: exact_single_source(g, s, 0.2),
           "target": lambda: exact_single_target(g, t, 0.2),
           "pagerank": lambda: exact_pagerank(g, 0.2)}[mode]()
    assert _sha(vec.tobytes()) == EXACT_DIGESTS[name, mode]


def test_randomized_push_state():
    # gamma*theta above the per-edge increments of levels 1 and 2, so the
    # randomized sorted scans run; the instance families above never
    # reach them at these sizes
    g, t = relay_fan_graph(n_in=120, n_relays=4, relay_out=16, in_nbr_out=12)
    params = replace(derive_params(0.2, 0.05, 0.5, 0.1, g.node_count),
                     L=3, theta=0.004, gamma=1.0, tau=0.004)
    caps = Capabilities.all()
    o = OracleHandle(g, caps, seed=3)
    st = backward_phase(o, t, params, np.random.default_rng(5))
    estimates = [single_pair_ppr(OracleHandle(g, caps, seed=s), s, t, params,
                                 np.random.default_rng(s))
                 for s in (0, 1, 20, 21, 100)]
    levels = [[sorted(level.items()) for level in st.r_hat],
              [sorted(level.items()) for level in st.r_hat_prime],
              [sorted(level.items()) for level in st.pushed_amount]]
    payload = (sorted(st.p_hat.items()), *levels, sorted(st.heavy),
               st.push_counts, o.stats.as_dict(), estimates)
    assert _sha(repr(payload).encode()) == PUSH_STATE_DIGEST
