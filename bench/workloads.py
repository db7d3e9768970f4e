"""The benchmark's seeded workloads.

A workload turns a seed into an ordered list of operations ("ops").
`run(op)` is the timed call into gbmoments and returns the op's exact
values; `check(op, values)` compares them with an independent path (or a
known answer) and is not timed.  `final_checks()` holds the checks a run
makes once, after its timed phase.  Every library function is looked up on
its module at call time, so the traced run sees each call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

from gbmoments import broken, cyclegraph, fock, moments, partitions, qproduct
from gbmoments import words as W

OUT_DIR = os.path.join("bench", "out")  # relative to the checkout's root
CROSSING = partitions.PairPartition.of([(1, 3), (2, 4)])
LETTERS = tuple(
    W.Letter(b, i, k) for b in (0, 1) for i in (1, 2) for k in (W.ANNIHILATE, W.CREATE)
)


# ---------------------------------------------------------------------------
# seeded generators


def random_colored(rng: random.Random, m: int) -> partitions.ColoredPairPartition:
    """A uniformly random two-colored pair partition of [2m]."""
    points = list(range(1, 2 * m + 1))
    rng.shuffle(points)
    pairs = [(points[2 * j], points[2 * j + 1]) for j in range(m)]
    colors = [rng.randrange(2) for _ in range(m)]
    return partitions.ColoredPairPartition.of(pairs, colors, 2)


def random_thoma(rng: random.Random) -> moments.ThomaParameter:
    """A rational Thoma parameter with 1 to 4 nonzero entries."""
    n_alpha = rng.randint(0, 3)
    n_beta = rng.randint(1 if n_alpha == 0 else 0, 2)
    weights = [rng.randint(1, 6) for _ in range(n_alpha + n_beta)]
    total = sum(weights) + rng.randint(0, 6)
    entries = [Fraction(w, total) for w in weights]
    alpha = tuple(sorted(entries[:n_alpha], reverse=True))
    beta = tuple(sorted(entries[n_alpha:], reverse=True))
    return moments.ThomaParameter(alpha, beta)


def random_word_pair(rng: random.Random, max_len: int) -> tuple[W.Word, W.Word]:
    """A random two-color word A and a shuffle B of it."""
    a = [rng.choice(LETTERS) for _ in range(rng.randrange(max_len + 1))]
    b = a[:]
    rng.shuffle(b)
    return tuple(a), tuple(b)


def balanced_word(rng: random.Random, m: int) -> W.Word:
    """A word with at least one compatible partition: the letters of a
    random colored partition, with basis indices drawn from {1, 2}."""
    p = random_colored(rng, m)
    letters = [None] * p.size
    for (l, r), c in zip(p.base.pairs, p.colors):
        i = rng.randint(1, 2)
        letters[l - 1] = W.annihilate(c, i)
        letters[r - 1] = W.create(c, i)
    return W.word(letters)


def interleave(rng: random.Random, groups) -> list:
    """Shuffle each group and merge them so that every prefix of the result
    holds the groups in about their overall proportions.  A run covers a
    prefix of its ops, so this keeps its op mix the same for every seed."""
    keyed = []
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        keyed += [((k + rng.random()) / len(group), item) for k, item in enumerate(group)]
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


# ---------------------------------------------------------------------------
# exact values: digest and serialization


def _exact(value) -> str:
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_exact(v) for v in value) + ")"
    if isinstance(value, (Fraction, int, str)):  # bool is an int
        return str(value)
    raise TypeError(f"not an exact value: {value!r}")


def digest_line(index: int, values) -> bytes:
    """One op's contribution to the result digest."""
    text = "error" if values is None else _exact(values)
    return f"{index}:{text}\n".encode()


def result_digest(values_in_order) -> str:
    h = hashlib.sha256()
    for index, values in enumerate(values_in_order):
        h.update(digest_line(index, values))
    return h.hexdigest()


def _plain(obj):
    if isinstance(obj, (partitions.ColoredPairPartition, partitions.PairPartition, broken.BrokenPairPartition)):
        return obj.to_json()
    if isinstance(obj, moments.ThomaParameter):
        return {"alpha": [str(x) for x in obj.alpha], "beta": [str(x) for x in obj.beta]}
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"cannot serialize {obj!r}")


def serialize_inputs(ops) -> bytes:
    """Canonical bytes of an input list; equal seeds give equal bytes."""
    return json.dumps(ops, default=_plain, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    MIN_OPS = 100  # a run makes at least this many ops: 10 samples beyond p90

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, op) -> tuple:
        raise NotImplementedError

    def check(self, op, values) -> bool:
        raise NotImplementedError

    def final_checks(self) -> list[tuple[tuple, bool]]:
        return []

    def layer_counts(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def _uncolored(tp: moments.ThomaParameter):
    return lambda v: moments.t_uncolored(tp, v)


class WeightSweep(Workload):
    """Every two-colored m=5 partition plus seeded m=6 and m=7 samples, in
    seeded order.  One op weighs one partition four ways."""

    name = "weight_sweep"
    M6_SAMPLES = 6000
    M7_SAMPLES = 1500
    N_CHOICES = (2, 3, 4, 5, -1, -2, -3)

    def inputs(self, seed):
        rng = random.Random(seed)
        parts = interleave(
            rng,
            [
                partitions.enumerate_colored(5, 2),
                [random_colored(rng, 6) for _ in range(self.M6_SAMPLES)],
                [random_colored(rng, 7) for _ in range(self.M7_SAMPLES)],
            ],
        )
        pool = [random_thoma(rng) for _ in range(8)]
        return [
            (p, rng.choice(self.N_CHOICES), rng.choice(pool), rng.choice(pool), rng.choice(pool))
            for p in parts
        ]

    def run(self, op):
        p, n, tp, minus, plus = op
        return (
            moments.t_n(n, p),
            moments.t_colored(moments.thoma_n(n), p),
            moments.t_colored(tp, p),
            moments.t_tensor(_uncolored(minus), _uncolored(plus), p),
        )

    def check(self, op, values):
        # the rectangular collapse; the other two weights must stay exact
        return values[0] == values[1] and all(type(v) is Fraction for v in values)


class Identities(Workload):
    """The negative-N identities: the exclusion sweep, the commutation and
    finite-padding identities on seeded words, the signed cycle-count
    cancellation and the exact free-case q/n rate, in seeded order."""

    name = "identities"
    EXCLUSION_N = (-1, -2)
    IDENTITY_N = (-2, -1, 2, 3)
    # One pass over the ops lasts about 0.7 of an 8 s run, so every run
    # covers the whole exclusion sweep, whose few slowest words (~0.2 s
    # each) would otherwise make ops_per_s depend on the seed.  The ops
    # past the first pass find their weights in the graph cache.
    COMMUTATION_OPS = 15000
    WLIM_OPS = 8000
    CLT_OPS = 400

    def inputs(self, seed):
        rng = random.Random(seed)
        exclusion = [
            ("exclusion", W.adjoint(w) + w, n)
            for n in self.EXCLUSION_N
            for color in (0, 1)
            for w in fock.one_color_words(6, 2, color)
            if any(v > -n for v in W.word_profile(w).values())
        ]
        commutation = []
        for _ in range(self.COMMUTATION_OPS):
            # A of length <= 4 bounds the compatible partitions by 5!
            a, b_word = random_word_pair(rng, 4)
            b = 0 if W.profile_weight(a, 0) >= W.profile_weight(a, 1) else 1
            commutation.append(("commutation", a, b_word, b, rng.randint(1, 3), rng.choice(self.IDENTITY_N)))
        wlim = []
        for _ in range(self.WLIM_OPS):
            # A of length <= 3 keeps pad 4 above the identity's threshold
            a, b_word = random_word_pair(rng, 3)
            wlim.append(("wlim", a, b_word, rng.randrange(2), rng.randint(1, 2), rng.choice(self.IDENTITY_N), 4))
        clt = []
        for k in range(self.CLT_OPS):
            denominator = rng.randint(1, 8)
            q = Fraction(rng.choice((-1, 1)) * rng.randint(1, denominator), denominator)
            # every n in turn: the cost grows as n^2, so a seeded n would
            # make ops_per_s depend on the seed
            clt.append(("clt", q, 2 + k % 15))
        stirling = [("stirling", n) for n in range(-1, -8, -1)]
        return interleave(rng, [exclusion, commutation, wlim, clt, stirling])

    def run(self, op):
        kind = op[0]
        if kind == "exclusion":
            return (fock.rho_n_combinatorial(op[1], op[2]),)
        if kind == "commutation":
            lhs, rhs, _ = fock.commutation_check(*op[1:])
            return (lhs, rhs)
        if kind == "wlim":
            lhs, rhs, _ = fock.wlim_identity_check(*op[1:])
            return (lhs, rhs)
        if kind == "stirling":
            value, _ = qproduct.stirling_check(op[1])
            return (value,)
        q, n = op[1], op[2]
        q_matrix = qproduct.QMatrix.constant(2, q)
        ((_, error),) = qproduct.clt_error_curve(moments.t_free, q_matrix, CROSSING, [n])
        return (error,)

    def check(self, op, values):
        kind = op[0]
        if kind in ("exclusion", "stirling"):
            return values == (0,)
        if kind in ("commutation", "wlim"):
            return values[0] == values[1]
        q, n = op[1], op[2]
        return values == (abs(q) / n,)


class OracleCrosscheck(Workload):
    """Every two-colored partition with m <= 4 at N = 2 and 3 (the `compare`
    matrix), in seeded order.  One op is one row."""

    name = "oracle_crosscheck"

    def inputs(self, seed):
        rng = random.Random(seed)
        return interleave(
            rng,
            [[(p, n) for p in partitions.enumerate_colored(m, 2)] for n in (2, 3) for m in range(1, 5)],
        )

    def run(self, op):
        p, n = op
        return (
            fock.vacuum_expectation_dense(W.canonical_word(p), n),
            fock.vacuum_expectation_lambda(p, n),
            moments.t_colored(moments.thoma_n(n), p),
            moments.t_n(n, p),
        )

    def check(self, op, values):
        return values[0] == values[1] == values[2] == values[3]


class GramPositivity(Workload):
    """PSD checks on seeded 16-diagram subfamilies of the 251 two-colored
    broken diagrams on at most 4 points, under three weights.  Every
    principal submatrix of a PSD Gram matrix is PSD, so each op's verdict
    is known.  The full family is checked once per weight after timing."""

    name = "gram_positivity"
    # ~8 ms ops: short enough for the calibration to follow the host's speed
    SUBFAMILY = 16
    OPS_PER_WEIGHT = 500
    WEIGHTS = ("tn", "thoma", "q12")

    def inputs(self, seed):
        rng = random.Random(seed)
        self.family = broken.enumerate_broken(4, 2)
        self.thoma = random_thoma(rng)
        return interleave(
            rng,
            [
                [(kind, tuple(rng.sample(self.family, self.SUBFAMILY))) for _ in range(self.OPS_PER_WEIGHT)]
                for kind in self.WEIGHTS
            ],
        )

    def _weight(self, kind):
        if kind == "tn":
            return moments.tn_handle(2)
        if kind == "thoma":
            return moments.thoma_handle(self.thoma)
        q = qproduct.QMatrix.of([[1, -1], [-1, 1]])
        return qproduct.q_product_handle([moments.tn_uncolored_handle(2)] * 2, q)

    def _gram(self, kind, family):
        weight = self._weight(kind)
        recorded = []

        def t(p):
            value = weight(p)
            recorded.append(value)
            return value

        _, ok = qproduct.gram_psd_check(family, t)
        return (ok, tuple(recorded))

    def run(self, op):
        return self._gram(*op)

    def check(self, op, values):
        return values[0] is True

    def final_checks(self):
        out = []
        for kind in self.WEIGHTS:
            values = self._gram(kind, self.family)
            out.append((values, self.check(None, values)))
        return out


class CliQueries(Workload):
    """Seeded small queries, one `python -m gbmoments.cli` process each,
    checked against the library computed in this process."""

    name = "cli_queries"
    # ~0.15 s ops; 200 of them put 20 samples beyond p90
    MIN_OPS = 200
    OPS_PER_KIND = 40
    KINDS = ("eval_tn", "eval_thoma", "eval_tensor", "graph", "oracle", "enumerate", "stirling")

    def __init__(self):
        self.dir = None
        self.compute_s = 0.0
        self.exit_nonzero = 0

    def _partition_op(self, rng, kind, index):
        p = random_colored(rng, rng.randint(1, 6))
        file = {"flag": "--partition", "name": f"q{index}.json", "content": p.to_json()}
        if kind == "graph":
            return ("graph", [], file, {})
        if kind == "eval_tn":
            n = rng.choice((2, 3, 4, -1, -2))
            return (kind, ["--t", "tn", "--N", str(n)], file, {"N": n})
        if kind == "eval_thoma":
            tp = random_thoma(rng)
            argv = ["--t", "thoma"] + _thoma_flags(tp, "")
            return (kind, argv, file, {"tp": tp})
        minus, plus = random_thoma(rng), random_thoma(rng)
        argv = ["--t", "tensor"] + _thoma_flags(minus, "-minus") + _thoma_flags(plus, "-plus")
        return (kind, argv, file, {"minus": minus, "plus": plus})

    def _op(self, rng, kind, index):
        if kind in ("eval_tn", "eval_thoma", "eval_tensor", "graph"):
            return self._partition_op(rng, kind, index)
        if kind == "oracle":
            if rng.random() < 0.5:
                n, mode, m = rng.choice((2, 3)), "both", rng.randint(1, 2)
            else:
                n, mode, m = rng.choice((-2, -1, 2, 3)), "combinatorial", rng.randint(1, 4)
            content = W.word_to_json(balanced_word(rng, m))
            file = {"flag": "--word", "name": f"q{index}.json", "content": content}
            return ("oracle", ["--N", str(n), "--mode", mode], file, {"N": n, "mode": mode})
        if kind == "enumerate":
            pairs, colors = rng.randint(1, 3), rng.randint(1, 2)
            argv = ["--pairs", str(pairs), "--colors", str(colors)]
            return ("enumerate", argv, None, {"pairs": pairs, "colors": colors})
        # N >= -5 keeps the compute (under 1 ms) from setting the tail
        n = rng.randint(-5, -1)
        return ("stirling", ["--N", str(n)], None, {"N": n})

    def inputs(self, seed):
        rng = random.Random(seed)
        ops = interleave(
            rng,
            [
                [self._op(rng, kind, len(self.KINDS) * k + j) for k in range(self.OPS_PER_KIND)]
                for j, kind in enumerate(self.KINDS)
            ],
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
        for _, _, file, _ in ops:
            if file is not None:
                with open(os.path.join(self.dir, file["name"]), "w") as fh:
                    json.dump(file["content"], fh)
        return ops

    def run(self, op):
        kind, argv, file, _ = op
        subcommand = kind.split("_")[0]
        command = [sys.executable, "-m", "gbmoments.cli", subcommand, *argv]
        if file is not None:
            command += [file["flag"], os.path.join(self.dir, file["name"])]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            self.exit_nonzero += 1
            return (proc.returncode, False)
        report = json.loads(proc.stdout)
        self.compute_s += report["wall_time_s"]
        return (proc.returncode, report["pass"]) + _report_values(kind, report["results"])

    def check(self, op, values):
        return values[:2] == (0, True) and values[2:] == _library_values(op)

    def layer_counts(self):
        return {"cli.compute_s": self.compute_s, "cli.exit_nonzero": self.exit_nonzero}

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


def _thoma_flags(tp: moments.ThomaParameter, suffix: str) -> list[str]:
    flags = []
    for name, seq in (("alpha", tp.alpha), ("beta", tp.beta)):
        if seq:
            flags += [f"--{name}{suffix}", ",".join(str(x) for x in seq)]
    return flags


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _report_values(kind: str, results: dict) -> tuple:
    if kind.startswith("eval") or kind == "stirling":
        return (Fraction(results["value"]),)
    if kind == "graph":
        return (_canonical_json(results),)
    if kind == "oracle":
        return tuple(Fraction(results[key]) for key in ("combinatorial", "dense") if key in results)
    return (results["count"], _canonical_json(results["partitions"]))


def _library_values(op) -> tuple:
    """The in-process value a CLI op must reproduce."""
    kind, _, file, params = op
    if file is not None and kind != "oracle":
        p = partitions.colored_from_json(file["content"])
    if kind == "eval_tn":
        return (moments.t_n(params["N"], p),)
    if kind == "eval_thoma":
        return (moments.t_colored(params["tp"], p),)
    if kind == "eval_tensor":
        return (moments.t_tensor(_uncolored(params["minus"]), _uncolored(params["plus"]), p),)
    if kind == "graph":
        return (_canonical_json(cyclegraph.build_graph(p).to_json()),)
    if kind == "oracle":
        w = W.word_from_json(file["content"])
        value = fock.rho_n_combinatorial(w, params["N"])
        if params["mode"] == "both":
            return (value, fock.vacuum_expectation_dense(w, params["N"]))
        return (value,)
    if kind == "enumerate":
        m, k = params["pairs"], params["colors"]
        items = partitions.enumerate_pair_partitions(m) if k == 1 else partitions.enumerate_colored(m, k)
        return (len(items), _canonical_json([p.to_json() for p in items]))
    value, _ = qproduct.stirling_check(params["N"])
    return (Fraction(value),)


WORKLOADS = {
    cls.name: cls
    for cls in (WeightSweep, Identities, OracleCrosscheck, GramPositivity, CliQueries)
}
