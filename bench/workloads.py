"""The four benchmark workloads: inputs, one timed pass, and output checks.

Each workload has a ``setup`` that builds its inputs from the seed (untimed
by the pass, counted in set-up time), a ``run`` that is the timed pass, and
a ``check`` that inspects the pass output and returns (attempted, failed,
notes).  A failed item counts toward the error rate; a failed whole-output
check (exit code, digest) or an aborted pass counts every item as failed.

``full`` sizes are the benchmark; ``tiny`` sizes exist so the benchmark's
own tests can run every workload in seconds.  Reference digests in
``reference.json`` apply to the default seed only (scan16 and the Huang part
of signing do not depend on the seed at all).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

SIZES = {
    "full": {
        "scan16": {"orders": "16..16", "max_set_size": 5},
        "witness": {"count": 5000},
        "oracle": {"count": 400},
        "signing": {"max_n": 10, "cube": 6, "budget": 2000, "restarts": 8},
    },
    "tiny": {
        "scan16": {"orders": "8..8", "max_set_size": 3},
        "witness": {"count": 20},
        "oracle": {"count": 4},
        "signing": {"max_n": 4, "cube": 3, "budget": 60, "restarts": 2},
    },
}


def load_reference(size: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[size]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    attempted: int
    failed: int
    notes: list[str]
    derived: dict[str, float]


def _aborted(attempted: int, error: BaseException) -> Outcome:
    return Outcome(attempted, attempted, [f"pass aborted: {type(error).__name__}: {error}"], {})


# ---------------------------------------------------------------------------
# scan16: the CLI scan of every abelian group of order 16


class Scan16:
    name = "scan16"

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        params = SIZES[size][self.name]
        out = workdir / "scan.csv"
        if out.exists():
            out.unlink()
        argv = ["scan", "--abelian-orders", params["orders"],
                "--max-set-size", str(params["max_set_size"]), "--out", str(out)]
        return {"argv": argv, "out": out, "reference": load_reference(size)[self.name]}

    def run(self, inputs: dict):
        import cayleydeg.cli

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cayleydeg.cli.main(inputs["argv"])
        return {"code": code, "stderr": err.getvalue(), "csv": inputs["out"].read_text()}

    def check(self, output, inputs: dict, seed: int) -> Outcome:
        ref = inputs["reference"]
        expected = ref["instances"]
        if isinstance(output, BaseException):
            return _aborted(expected, output)
        return check_scan16(output["code"], output["stderr"], output["csv"], ref)


def check_scan16(code: int, stderr: str, csv_text: str, ref: dict) -> Outcome:
    expected = ref["instances"]
    notes = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    good = 0
    if header == ["graph", "n", "regularity", "s", "f", "method", "weak_ok", "strong_ok",
                  "margin", "witness"]:
        good = sum(1 for r in body if len(r) == 10 and r[6] == "1" and r[7] == "1")
    else:
        notes.append("unexpected CSV header")
    if good < len(body):
        notes.append(f"{len(body) - good} row(s) without weak_ok=1 and strong_ok=1")
    errors = stderr.count("instance error")
    if errors:
        notes.append(f"{errors} instance error(s)")
    failed = max(expected - good, 0)
    whole = []
    if code != 0:
        whole.append(f"exit code {code}")
    if len(body) != expected:
        whole.append(f"{len(body)} rows, expected {expected}")
    if sha256_text(csv_text) != ref["csv_sha256"]:
        whole.append("CSV sha256 differs from the reference")
    if whole or errors:
        failed = expected
    return Outcome(expected, failed, notes + whole, {})


# ---------------------------------------------------------------------------
# witness: random_witness_suite at jobs=1


class Witness:
    name = "witness"

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        ref = load_reference(size)[self.name]
        return {"count": SIZES[size][self.name]["count"], "seed": seed,
                "digest": ref["sha256"] if seed == DEFAULT_SEED else None}

    def run(self, inputs: dict):
        import cayleydeg

        return cayleydeg.random_witness_suite(count=inputs["count"], seed=inputs["seed"], jobs=1)

    def check(self, output, inputs: dict, seed: int) -> Outcome:
        if isinstance(output, BaseException):
            return _aborted(inputs["count"], output)
        return check_witness(output, inputs["count"], inputs["digest"])


def check_witness(lines: list[str], count: int, digest: str | None) -> Outcome:
    bad = sum(1 for line in lines if not line.endswith(" ok"))
    notes = [f"{bad} line(s) not ending in ok"] if bad else []
    failed = bad + max(count - len(lines), 0)
    if len(lines) != count:
        notes.append(f"{len(lines)} lines, expected {count}")
    if digest is not None and sha256_text("\n".join(lines)) != digest:
        notes.append("suite digest differs from the reference")
        failed = count
    return Outcome(count, min(failed, count), notes, {})


# ---------------------------------------------------------------------------
# oracle: oracle_agreement_suite at jobs=1

_MARKERS = ("MISMATCH", "BAD-WITNESS", "HEURISTIC-BELOW-EXACT")
_F_H = re.compile(r"\bs=(\d+) f=(\d+) h=(\d+)")


class Oracle:
    name = "oracle"

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        ref = load_reference(size)[self.name]
        return {"count": SIZES[size][self.name]["count"], "seed": seed,
                "digest": ref["f_sha256"] if seed == DEFAULT_SEED else None}

    def run(self, inputs: dict):
        import cayleydeg.extremal

        return cayleydeg.extremal.oracle_agreement_suite(
            count=inputs["count"], seed=inputs["seed"], jobs=1)

    def check(self, output, inputs: dict, seed: int) -> Outcome:
        if isinstance(output, BaseException):
            return _aborted(inputs["count"], output)
        return check_oracle(output, inputs["count"], inputs["digest"])


def exact_f_digest(lines: list[str]) -> str:
    """Digest of each graph's header and exact f per subset size; heuristic
    values are left out because only h >= f is guaranteed for them."""
    text = "\n".join(
        line.split(" s=", 1)[0] + " " + " ".join(f"{s}:{f}" for s, f, _ in _F_H.findall(line))
        for line in lines
    )
    return sha256_text(text)


def check_oracle(lines: list[str], count: int, digest: str | None) -> Outcome:
    bad = sum(1 for line in lines if any(m in line for m in _MARKERS))
    pairs = [(int(f), int(h)) for line in lines for _, f, h in _F_H.findall(line)]
    below = sum(1 for f, h in pairs if h < f)
    notes = []
    if bad:
        notes.append(f"{bad} line(s) with a disagreement marker")
    if below:
        notes.append(f"{below} heuristic value(s) below the exact f")
    failed = bad + max(count - len(lines), 0)
    if len(lines) != count:
        notes.append(f"{len(lines)} lines, expected {count}")
    if below or (digest is not None and exact_f_digest(lines) != digest):
        if not below:
            notes.append("exact-f digest differs from the reference")
        failed = count
    hits = sum(1 for f, h in pairs if h == f)
    derived = {"extremal.heuristic.hit_ratio": hits / len(pairs) if pairs else 0.0}
    return Outcome(count, min(failed, count), notes, derived)


# ---------------------------------------------------------------------------
# signing: Huang signings, their spectra, and a seeded signing search


def hypercube_graph(dim: int):
    from cayleydeg import Graph

    n = 1 << dim
    return Graph(n, [(u, u ^ (1 << i)) for u in range(n) for i in range(dim) if u < u ^ (1 << i)])


class Signing:
    name = "signing"

    def setup(self, seed: int, size: str, workdir: Path) -> dict:
        params = SIZES[size][self.name]
        return dict(params, seed=seed, graph=hypercube_graph(params["cube"]))

    def attempted(self, inputs: dict) -> int:
        return 2 * inputs["max_n"] + 1

    def run(self, inputs: dict):
        from cayleydeg import signing

        huang = []
        for n in range(1, inputs["max_n"] + 1):
            M = signing.huang_signing(n)
            huang.append((n, signing.verify_signing(M, n), signing.spectrum(M).eigenvalues))
        search = signing.signing_search(inputs["graph"], seed=inputs["seed"],
                                        budget=inputs["budget"], restarts=inputs["restarts"])
        return {"huang": huang, "search": search}

    def check(self, output, inputs: dict, seed: int) -> Outcome:
        if isinstance(output, BaseException):
            return _aborted(self.attempted(inputs), output)
        return check_signing(output, inputs["graph"], self.attempted(inputs))


def check_signing(output: dict, graph, attempted: int, tol: float = 1e-9) -> Outcome:
    failed = 0
    notes = []
    for n, verified, eigenvalues in output["huang"]:
        if not verified:
            failed += 1
            notes.append(f"n={n}: verify_signing is not True")
        root = math.sqrt(n)
        ok = (len(eigenvalues) == 1 << n
              and bool(np.all(np.abs(np.abs(eigenvalues) - root) <= tol))
              and int(np.sum(eigenvalues < 0)) == 1 << (n - 1))
        if not ok:
            failed += 1
            notes.append(f"n={n}: spectrum is not +-sqrt(n) with half negative")
    res = output["search"]
    mat = np.asarray(res.signing.matrix)
    support = (mat != 0).astype(np.int8)
    adjacency = np.zeros_like(support)
    for u, v in graph.edges():
        adjacency[u, v] = adjacency[v, u] = 1
    # independent recomputation: the general (non-symmetric) LAPACK solver
    recomputed = float(np.min(np.abs(np.linalg.eigvals(mat.astype(np.float64)).real)))
    if not (np.array_equal(support, adjacency) and abs(recomputed - res.min_modulus) <= 1e-8):
        failed += 1
        notes.append(f"search: reported min modulus {res.min_modulus!r}, "
                     f"recomputed {recomputed!r}, or support differs from the graph")
    count = len(output["huang"]) * 2 + 1
    if count != attempted:
        notes.append(f"{count} operations, expected {attempted}")
        failed = attempted
    return Outcome(attempted, min(failed, attempted), notes, {})


# ---------------------------------------------------------------------------
# the benchmark's workloads: two parts each, run one after the other in a pass


class Combined:
    """A workload made of parts that run one after another in the same pass.

    A part that raises is recorded as aborted and the next part still runs.
    """

    def __init__(self, name: str, *parts):
        self.name = name
        self.parts = parts

    def setup(self, seed: int, size: str, workdir: Path) -> list:
        return [part.setup(seed, size, workdir) for part in self.parts]

    def run(self, inputs: list) -> list:
        outputs = []
        for part, part_inputs in zip(self.parts, inputs):
            try:
                outputs.append(part.run(part_inputs))
            except Exception as exc:  # checked below: every item of the part fails
                outputs.append(exc)
        return outputs

    def check(self, outputs: list, inputs: list, seed: int) -> Outcome:
        total = Outcome(0, 0, [], {})
        for part, output, part_inputs in zip(self.parts, outputs, inputs):
            got = part.check(output, part_inputs, seed)
            total.attempted += got.attempted
            total.failed += got.failed
            total.notes += [f"{part.name}: {note}" for note in got.notes]
            total.derived.update(got.derived)
        return total


PARTS = {part.name: part for part in (Scan16(), Witness(), Oracle(), Signing())}
WORKLOADS = {
    "abelian": Combined("abelian", PARTS["scan16"], PARTS["witness"]),
    "engines": Combined("engines", PARTS["oracle"], PARTS["signing"]),
}
