"""Workloads of the btas benchmark.

Each workload has three parts that never share code with btas:

* a ``generate_*`` function draws the inputs from the seed, writes them
  under a work directory and returns a plan (what the program is asked to
  do), a reference, the sha256 of every input file and the parameters;
* a session class turns a plan into calls through btas's public entry
  points, ``btas.cli.entrypoint`` for the CLI workloads and ``btas.matmul``
  for the kernel mix.  A fresh process builds a session and runs one op to
  measure set-up time;
* the reference's ``check`` compares one op's outputs with outputs
  computed by another route, exactly: every workload's sums are exact in
  float64.  It returns OK, WRONG or KNOWN_DEFECT (see VerdictReference).

Inputs are drawn with numpy's PCG64 here, not with ``btas.random_graph``,
so that a change to the library's generator cannot change the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

INT_EXACT_LIMIT = float(2**53)

#: Outcomes of one op's check.
OK, WRONG, KNOWN_DEFECT = "ok", "wrong", "known-defect"

#: Input sizes.  "full" is what the benchmark measures; "toy" keeps every
#: code path but runs in well under a second, for the smoke test.
SCALES = {
    "full": {
        "dense_n": 192, "dense_p": 0.5, "dense_weights": (1, 100),
        "sparse_n": 512, "sparse_degree": 8,
        "kernel_n": 384, "rank_n": 768, "rank_k": 64,
        "mutant_groups": 40, "setups": 3,
    },
    "toy": {
        "dense_n": 24, "dense_p": 0.5, "dense_weights": (1, 100),
        "sparse_n": 40, "sparse_degree": 3,
        "kernel_n": 24, "rank_n": 32, "rank_k": 4,
        "mutant_groups": 3, "setups": 2,
    },
}


def integral(*arrays: np.ndarray) -> bool:
    """btas's integer mode: every finite entry integral and below 2^53."""
    finite = np.concatenate([a[np.isfinite(a)] for a in arrays])
    return bool(np.all(finite == np.floor(finite)) and np.all(np.abs(finite) < INT_EXACT_LIMIT))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------- generators

def dense_digraph(rng: np.random.Generator, n: int, p: float, weights: "tuple[int, int]"):
    """Each ordered pair i != j is an edge with probability p; integer
    weights uniform in weights[0]..weights[1].  Edge order is shuffled."""
    present = rng.random((n, n)) < p
    np.fill_diagonal(present, False)
    src, dst = np.nonzero(present)
    w = rng.integers(weights[0], weights[1] + 1, size=src.size).astype(np.float64)
    order = rng.permutation(src.size)
    return src[order], dst[order], w[order]


def potential_digraph(rng: np.random.Generator, n: int, degree: int):
    """Sparse digraph with some negative weights and no negative cycle.

    Every vertex gets ``degree`` distinct out-neighbours.  Base weights are
    positive quarter-integers; each edge u->v is then shifted by
    pot(u) - pot(v) for quarter-integer vertex potentials, which leaves
    every cycle's weight unchanged.  Returns the shifted edges plus the
    base weights and potentials that the reference uses.
    """
    src = np.repeat(np.arange(n), degree)
    dst = np.empty_like(src)
    for u in range(n):
        others = rng.choice(n - 1, size=degree, replace=False)
        dst[u * degree:(u + 1) * degree] = others + (others >= u)
    base = rng.integers(1, 400, size=src.size) / 4.0
    pot = rng.integers(-200, 200, size=n) / 4.0
    shifted = base + pot[src] - pot[dst]
    order = rng.permutation(src.size)
    return src[order], dst[order], shifted[order], base[order], pot


def _token(value: float, integer: bool) -> str:
    if math.isinf(value):
        return "inf"
    return str(int(value)) if integer else repr(float(value))


def edge_list_text(n: int, src, dst, w) -> str:
    integer = integral(w)
    lines = [f"{n} {len(src)}"]
    lines.extend(
        f"{s} {d} {_token(x, integer)}" for s, d, x in zip(src.tolist(), dst.tolist(), w.tolist())
    )
    return "\n".join(lines) + "\n"


def matrix_lines(d: np.ndarray) -> "list[str]":
    """Rows of a min-plus matrix in btas's native text format (no header)."""
    integer = integral(d)
    return [" ".join(_token(v, integer) for v in row) for row in d.tolist()]


def matrix_text(header: str, rows: "list[str]") -> str:
    return "\n".join([header, *rows]) + "\n"


# --------------------------------------------------------------- references

def reference_distances(n: int, src, dst, w) -> np.ndarray:
    """All-pairs distances by scipy's Dijkstra; weights must be positive.

    scipy is imported here so that set-up processes, which only load
    inputs, do not pay for it."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    graph = csr_matrix((w, (src, dst)), shape=(n, n))
    return dijkstra(graph, directed=True)


def reference_product(x: np.ndarray, y: np.ndarray, kind: str, acc=None, integer=False) -> np.ndarray:
    """Oriented tropical product by a k-outermost loop (not btas's tiling).

    Operands are oriented: +inf is the empty entry under min-plus, -inf
    under max-plus.  In integer mode a finite sum of magnitude >= 2^53
    saturates to the empty entry, as btas documents.
    """
    combine = np.minimum if kind == "minplus" else np.maximum
    eps = math.inf if kind == "minplus" else -math.inf
    out = np.full((x.shape[0], y.shape[1]), eps)
    for k in range(x.shape[1]):
        cand = x[:, k, None] + y[None, k, :]
        if integer:
            cand[np.isfinite(cand) & (np.abs(cand) >= INT_EXACT_LIMIT)] = eps
        combine(out, cand, out=out)
    if acc is not None:
        combine(out, acc, out=out)
    return out


def passes_documented_checks(d: np.ndarray, base: np.ndarray) -> bool:
    """True iff ``d`` has every property ``find_apsp_violation`` documents:
    zero diagonal, d <= I (+) A, d <= d (x) d and d = d (x) (I (+) A).
    Computed with reference_product, not with btas."""
    return bool(
        (np.diagonal(d) == 0.0).all()
        and (d <= base).all()
        and (d <= reference_product(d, d, "minplus")).all()
        and np.array_equal(reference_product(d, base, "minplus"), d)
    )


def read_matrix_file(path: Path) -> "tuple[list[str], np.ndarray]":
    """Header tokens and values of a native-format matrix file, parsed
    with numpy rather than with btas's own reader."""
    tokens = path.read_text(encoding="utf-8").split()
    n_rows, n_cols = int(tokens[0]), int(tokens[1])
    values = np.array(tokens[3:], dtype=np.float64)
    return tokens[:3], values.reshape(n_rows, n_cols)


# --------------------------------------------------------------- CLI workloads

class CliSession:
    """Runs ``btas.cli.entrypoint`` in-process.  Op k uses slot k of the
    plan, cycling; CLI chatter on stdout and stderr is captured."""

    def __init__(self, btas, plan: dict):
        self._cli = btas.cli
        self.argvs = plan["argvs"]
        self.out = Path(plan["out"]) if plan.get("out") else None

    def before(self, k: int) -> None:
        if self.out is not None:
            self.out.unlink(missing_ok=True)

    def op(self, k: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self._cli.entrypoint(list(self.argvs[k % len(self.argvs)]))


class SolveReference:
    def __init__(self, dist: np.ndarray, out: Path):
        self.dist = dist
        self.out = out

    def check(self, k: int, exit_code: int) -> str:
        if exit_code != 0 or not self.out.is_file():
            return WRONG
        header, values = read_matrix_file(self.out)
        n = self.dist.shape[0]
        ok = header == [str(n), str(n), "minplus"] and np.array_equal(values, self.dist)
        return OK if ok else WRONG


class VerdictReference:
    """Checks each verdict against the known truth.

    ``find_apsp_violation`` checks only upper bounds, so it accepts a
    lowered distance that breaks none of the properties it documents
    (ROADMAP item 1).  Accepting such a mutant is wrong, and is returned as
    KNOWN_DEFECT: the run counts it in its error ratio but not in
    ``failed``.  Any other wrong verdict, including an accepted mutant that
    breaks a documented property, is WRONG.
    """

    def __init__(self, expected: "list[int]", excused: "list[bool]"):
        self.expected = expected
        self.excused = excused

    def check(self, k: int, exit_code: int) -> str:
        slot = k % len(self.expected)
        if exit_code == self.expected[slot]:
            return OK
        return KNOWN_DEFECT if exit_code == 0 and self.excused[slot] else WRONG


def _write(path: Path, text: str, digests: dict) -> str:
    path.write_text(text, encoding="utf-8")
    digests[path.name] = sha256_file(path)
    return str(path)


def generate_solve_dense(rng, scale: dict, work: Path):
    n = scale["dense_n"]
    src, dst, w = dense_digraph(rng, n, scale["dense_p"], scale["dense_weights"])
    digests: dict = {}
    graph = _write(work / "graph.txt", edge_list_text(n, src, dst, w), digests)
    out = work / "dist.txt"
    plan = {"argvs": [["solve", graph, "--out", str(out)]], "out": str(out)}
    params = {"n": n, "p": scale["dense_p"], "weights": list(scale["dense_weights"]),
              "edges": int(src.size), "algorithm": "square (default)"}
    return plan, SolveReference(reference_distances(n, src, dst, w), out), digests, params


def generate_solve_fw_sparse(rng, scale: dict, work: Path):
    n = scale["sparse_n"]
    src, dst, w, base, pot = potential_digraph(rng, n, scale["sparse_degree"])
    digests: dict = {}
    graph = _write(work / "graph.txt", edge_list_text(n, src, dst, w), digests)
    dist = reference_distances(n, src, dst, base)
    dist = dist + pot[:, None] - pot[None, :]  # undo the shift; inf stays inf
    out = work / "dist.txt"
    plan = {"argvs": [["solve", graph, "--algorithm", "fw", "--out", str(out)]], "out": str(out)}
    params = {"n": n, "out_degree": scale["sparse_degree"], "edges": int(src.size),
              "negative_edges": int((w < 0).sum()), "weights": "quarter-integers shifted by potentials"}
    return plan, SolveReference(dist, out), digests, params


def generate_verify_mixed(rng, scale: dict, work: Path):
    """One graph; each group of five ops checks the correct distances
    three times, one finite off-diagonal entry raised by 1 once, and one
    lowered by 1 once.  Every mutant is a different entry.  Lowered
    mutants that pass every documented check of ``find_apsp_violation``
    are excused as its known defect (see VerdictReference)."""
    n = scale["dense_n"]
    src, dst, w = dense_digraph(rng, n, scale["dense_p"], scale["dense_weights"])
    dist = reference_distances(n, src, dst, w)
    digests: dict = {}
    graph = _write(work / "graph.txt", edge_list_text(n, src, dst, w), digests)
    header = f"{n} {n} minplus"
    rows = matrix_lines(dist)
    good = _write(work / "dist-correct.txt", matrix_text(header, rows), digests)

    base = np.full((n, n), math.inf)
    base[src, dst] = w
    np.fill_diagonal(base, np.minimum(np.diagonal(base), 0.0))

    finite = np.argwhere(np.isfinite(dist) & ~np.eye(n, dtype=bool))
    picks = finite[rng.choice(len(finite), size=2 * scale["mutant_groups"], replace=False)]
    argvs, expected, excused = [], [], []
    for g in range(scale["mutant_groups"]):
        mutants = []
        for delta, (i, j) in zip((1.0, -1.0), picks[2 * g:2 * g + 2]):
            d = dist.copy()
            d[i, j] += delta
            name = f"dist-{'raised' if delta > 0 else 'lowered'}-{g}.txt"
            text = matrix_text(header, rows[:i] + matrix_lines(d[i][None, :]) + rows[i + 1:])
            mutants.append((_write(work / name, text, digests),
                            delta < 0 and passes_documented_checks(d, base)))
        (raised, _), (lowered, lowered_excused) = mutants
        for result, verdict, excuse in ((good, 0, False), (raised, 1, False), (good, 0, False),
                                        (lowered, 1, lowered_excused), (good, 0, False)):
            argvs.append(["verify", graph, result])
            expected.append(verdict)
            excused.append(excuse)
    plan = {"argvs": argvs, "out": None}
    params = {"n": n, "p": scale["dense_p"], "weights": list(scale["dense_weights"]),
              "edges": int(src.size), "mutant_groups": scale["mutant_groups"],
              "cycle": "correct, raised, correct, lowered, correct",
              "lowered_passing_documented_checks": sum(excused)}
    return plan, VerdictReference(expected, excused), digests, params


# --------------------------------------------------------------- kernel mix

#: (label, kind, x, y, accumulate_into); names refer to arrays in the plan.
KERNEL_PRODUCTS = (
    ("minplus-int", "minplus", "a1", "b1", None),
    ("maxplus-float", "maxplus", "a2", "b2", None),
    ("minplus-accumulate", "minplus", "a3", "b3", "c3"),
    ("minplus-saturating", "minplus", "a4", "b4", None),
    ("minplus-rank-update", "minplus", "x5", "y5", "c5"),
)


class KernelSession:
    """Builds the operands as TropicalMatrix objects once, then each op is
    one round of ``btas.matmul(tiles=None)`` over KERNEL_PRODUCTS."""

    def __init__(self, btas, plan: dict):
        self.btas = btas
        kinds = {"minplus": btas.SemiringKind.MIN_PLUS, "maxplus": btas.SemiringKind.MAX_PLUS}
        arrays = {name: np.load(path) for name, path in plan["arrays"].items()}
        self.calls = []
        for _, kind, x, y, acc in KERNEL_PRODUCTS:
            k = kinds[kind]
            self.calls.append((
                btas.TropicalMatrix(k, arrays[x]),
                btas.TropicalMatrix(k, arrays[y]),
                None if acc is None else btas.TropicalMatrix(k, arrays[acc]),
            ))

    def before(self, k: int) -> None:
        pass

    def op(self, k: int) -> list:
        return [self.btas.matmul(x, y, accumulate_into=acc) for x, y, acc in self.calls]


class KernelReference:
    def __init__(self, products: "list[np.ndarray]"):
        self.products = products

    def check(self, k: int, outputs: list) -> str:
        ok = len(outputs) == len(self.products) and all(
            np.array_equal(out.data, ref) for out, ref in zip(outputs, self.products)
        )
        return OK if ok else WRONG


def _orient(arr: np.ndarray, kind: str) -> np.ndarray:
    return arr if kind == "minplus" else np.where(np.isinf(arr), -math.inf, arr)


def _sparse_ints(rng, shape, hi: int, empty: float) -> np.ndarray:
    arr = rng.integers(0, hi + 1, size=shape).astype(np.float64)
    arr[rng.random(shape) < empty] = math.inf
    return arr


def generate_kernel_mix(rng, scale: dict, work: Path):
    n, rn, rk = scale["kernel_n"], scale["rank_n"], scale["rank_k"]
    near = 2.0**52
    arrays = {
        "a1": _sparse_ints(rng, (n, n), 1000, 0.1),
        "b1": _sparse_ints(rng, (n, n), 1000, 0.1),
        "a2": np.where(rng.random((n, n)) < 0.1, math.inf, rng.uniform(-50.0, 50.0, (n, n))),
        "b2": np.where(rng.random((n, n)) < 0.1, math.inf, rng.uniform(-50.0, 50.0, (n, n))),
        "a3": _sparse_ints(rng, (n, n), 1000, 0.1),
        "b3": _sparse_ints(rng, (n, n), 1000, 0.1),
        "c3": _sparse_ints(rng, (n, n), 1000, 0.5),
        # sums land within 2^41 of 2^53, so about half of them saturate
        "a4": near + rng.integers(-(2**40), 2**40, size=(n, n)).astype(np.float64),
        "b4": near + rng.integers(-(2**40), 2**40, size=(n, n)).astype(np.float64),
        "x5": _sparse_ints(rng, (rn, rk), 1000, 0.1),
        "y5": _sparse_ints(rng, (rk, rn), 1000, 0.1),
        "c5": _sparse_ints(rng, (rn, rn), 2000, 0.1),
    }
    digests, paths = {}, {}
    for name, arr in arrays.items():
        path = work / f"{name}.npy"
        np.save(path, arr)
        digests[path.name] = sha256_file(path)
        paths[name] = str(path)
    products = []
    for _, kind, x, y, acc in KERNEL_PRODUCTS:
        operands = [arrays[x], arrays[y]] + ([] if acc is None else [arrays[acc]])
        acc_arr = None if acc is None else _orient(arrays[acc], kind)
        products.append(reference_product(
            _orient(arrays[x], kind), _orient(arrays[y], kind), kind, acc_arr, integral(*operands),
        ))
    params = {"products": [
        {"label": label, "kind": kind, "shape": [arrays[x].shape[0], arrays[x].shape[1], arrays[y].shape[1]],
         "accumulate": acc is not None}
        for label, kind, x, y, acc in KERNEL_PRODUCTS
    ]}
    return {"arrays": paths}, KernelReference(products), digests, params


WORKLOADS = {
    "solve-dense": (generate_solve_dense, CliSession),
    "solve-fw-sparse": (generate_solve_fw_sparse, CliSession),
    "verify-mixed": (generate_verify_mixed, CliSession),
    "kernel-mix": (generate_kernel_mix, KernelSession),
}
