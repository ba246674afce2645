"""Seeded inputs for the dpjoin_serve benchmark: datasets, release specs,
and query request pools.

Everything here is a pure function of the workload seed, so the same seed
gives the same CSV files, spec texts, request lines and expected release
ids. The daemon only ever sees the generated files and lines.
"""

import random

# Dataset shapes. Each relation lists its attributes in ascending
# declaration order, which is the column order of the instance CSV. Values
# are drawn Zipf(`zipf`)-skewed (0 = uniform).
DATASETS = {
    # Two-table path join R1(A,B) ⋈ R2(B,C): the uniformized two-table
    # mechanism (partition by degree, then PMW per bucket).
    "tt": {
        "attributes": [("A", 48), ("B", 12), ("C", 48)],
        "relations": [("R1", ["A", "B"]), ("R2", ["B", "C"])],
        "tuples": 2000,
        "zipf": 1.1,
    },
    # Three-table star on A: hierarchical, so `auto` uniformizes it (§4.2).
    "star": {
        "attributes": [("A", 8), ("B", 8), ("C", 8), ("D", 8)],
        "relations": [("R1", ["A", "B"]), ("R2", ["A", "C"]),
                      ("R3", ["A", "D"])],
        "tuples": 300,
        "zipf": 1.1,
    },
    # Three-table path join: not hierarchical, so `auto` runs the
    # residual-sensitivity multi-table PMW (Algorithm 3). Uniform values:
    # under Zipf skew the residual sensitivity of the path is so large that
    # the release's error exceeds the join size.
    "path": {
        "attributes": [("A", 8), ("B", 8), ("C", 8), ("D", 8)],
        "relations": [("R1", ["A", "B"]), ("R2", ["B", "C"]),
                      ("R3", ["C", "D"])],
        "tuples": 1000,
        "zipf": 0.0,
    },
    # One relation inside the dense PMW envelope (16^3 = 4096 cells).
    "single": {
        "attributes": [("A", 32), ("B", 32), ("C", 32)],
        "relations": [("R", ["A", "B", "C"])],
        "tuples": 3000,
        "zipf": 1.1,
    },
    # One relation far beyond the 2^26-cell dense envelope (16^8 = 2^32
    # cells): only the product-form factored PMW backing can serve it.
    "wide": {
        "attributes": [(n, 16) for n in "ABCDEFGH"],
        "relations": [("R", list("ABCDEFGH"))],
        "tuples": 3000,
        "zipf": 1.1,
    },
}

# The release menu: one entry per mechanism the planner serves. `dataset`
# names a DATASETS key; `workload` and `mechanism` are spec values. ε = 4
# keeps every release but the hierarchical one below the error of an
# all-zero answer vector (checks.beats_zero); `informative` marks those.
# Hierarchical uniformize on the star over-counts the join many times over
# at any ε, so only the paper's bound holds it. Laplace answers carry
# independent heavy-tailed noise, so one answer may cross the join size by
# chance; it answers random_sign:2 (9 queries) so that it rarely does.
MENU = [
    {"kind": "two_table", "dataset": "tt", "mechanism": "auto",
     "workload": "marginal_all", "informative": True},
    {"kind": "hierarchical", "dataset": "star", "mechanism": "auto",
     "workload": "marginal_all", "informative": False},
    {"kind": "multi_table", "dataset": "path", "mechanism": "auto",
     "workload": "marginal_all", "informative": True},
    {"kind": "pmw", "dataset": "single", "mechanism": "auto",
     "workload": "marginal_all", "informative": True},
    {"kind": "pmw_factored", "dataset": "wide", "mechanism": "auto",
     "workload": "marginal_all", "informative": True},
    {"kind": "laplace", "dataset": "tt", "mechanism": "laplace",
     "workload": "random_sign:2", "informative": False},
]
MENU_BY_KIND = {entry["kind"]: entry for entry in MENU}

# The mechanism name the daemon reports for each menu kind.
MECHANISM_OF_KIND = {
    "two_table": "two_table",
    "hierarchical": "hierarchical",
    "multi_table": "pmw",
    "pmw": "pmw",
    "pmw_factored": "pmw",
    "laplace": "laplace",
}

SPEC_EPSILON = 4.0
SPEC_DELTA = 1e-7


def zipf_sampler(rng, size, s):
    """A draw function over range(size), Zipf(s)-skewed over a seeded
    permutation of the values (so the heavy value differs per seed)."""
    order = list(range(size))
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** s for rank in range(size)]
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)

    def draw():
        u = rng.random() * total
        lo, hi = 0, size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return order[lo]

    return draw


def generate_dataset(name, seed):
    """Frequency tables {relation index: {tuple: freq}} for one dataset.

    The multiset of tuples is drawn once per dataset shape, Zipf-skewed,
    from a fixed generator; `seed` then relabels every attribute's domain
    by a seeded permutation, shared by all relations that carry the
    attribute. A relabeling maps the join onto an isomorphic one, so join
    size, degrees and sensitivities (and with them the mechanisms' work and
    error) are the same for every seed, while the values the daemon sees
    are not."""
    shape = DATASETS[name]
    base = random.Random("shape/" + name)
    relabel = random.Random("%s/%d" % (name, seed))
    perm = {}
    for a, size in shape["attributes"]:
        perm[a] = list(range(size))
        relabel.shuffle(perm[a])
    samplers = {a: zipf_sampler(base, size, shape["zipf"])
                for a, size in shape["attributes"]}
    tables = {}
    for r, (_, attrs) in enumerate(shape["relations"]):
        table = {}
        for _ in range(shape["tuples"]):
            t = tuple(perm[a][samplers[a]()] for a in attrs)
            table[t] = table.get(t, 0) + 1
        tables[r] = table
    return tables


def dataset_csv(tables):
    """The dpjoin-instance v1 CSV text of a dataset."""
    lines = ["# dpjoin-instance v1"]
    for r in sorted(tables):
        for t in sorted(tables[r]):
            lines.append("%d,%s,%d" % (r, ",".join(map(str, t)),
                                       tables[r][t]))
    return "\n".join(lines) + "\n"


def register_request(name, csv_path):
    shape = DATASETS[name]
    return {
        "cmd": "register",
        "name": name,
        "source": "csv:" + csv_path,
        "attributes": ["%s:%d" % a for a in shape["attributes"]],
        "relations": ["%s:%s" % (r, ",".join(attrs))
                      for r, attrs in shape["relations"]],
    }


def spec_text(entry, name, workload_seed):
    """A release spec for menu `entry` under a fresh `name`."""
    shape = DATASETS[entry["dataset"]]
    lines = ["# dpjoin-release-spec v1", "name = " + name]
    lines += ["attribute = %s:%d" % a for a in shape["attributes"]]
    lines += ["relation = %s:%s" % (r, ",".join(attrs))
              for r, attrs in shape["relations"]]
    lines += [
        "epsilon = %r" % SPEC_EPSILON,
        "delta = %r" % SPEC_DELTA,
        "mechanism = " + entry["mechanism"],
        "workload = " + entry["workload"],
        "workload_seed = %d" % workload_seed,
    ]
    return "\n".join(lines) + "\n"


def release_request(entry, name, workload_seed, noise_seed):
    return {
        "cmd": "release",
        "dataset": entry["dataset"],
        "seed": noise_seed,
        "spec": spec_text(entry, name, workload_seed),
    }


def zipf_id_lists(rng, num_queries, count, max_len=16, s=1.1):
    """`count` id lists, the k-th of 1 + k % max_len ids, drawn
    Zipf(s)-skewed over the query ids so popular ids recur across
    requests. The lengths are fixed so that every seed asks for the same
    amount of work."""
    draw = zipf_sampler(rng, num_queries, s)
    return [[draw() for _ in range(1 + k % max_len)] for k in range(count)]
