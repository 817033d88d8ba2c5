"""The benchmark's workloads: how their inputs are made, the CLI call, checks.

Every workload makes its input with `hyperalpha simulate` from the
benchmark seed, then runs one CLI call per op. `{input}`, `{output}` and
`{seed}` in an op's argv are filled in by the harness; the argv is the same
for every op of a run, because `config_echo` records it in the output.
"""

import math
from dataclasses import dataclass

DEFAULT_SEED = 1
TIGHT_REL = 1e-9


@dataclass(frozen=True)
class Size:
    simulate: tuple
    op: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "estimate" or "coverage": which output schema to check
    full: Size
    smoke: Size

    def size(self, smoke):
        return self.smoke if smoke else self.full


_CLOAKED = ("--model", "cloaked", "--alpha", "1.0", "--sigma", "0.25")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "estimate", "estimate",
            full=Size(_CLOAKED + ("--half-width", "60"),
                      ("estimate", "--input", "{input}", "--half-width", "60",
                       "--output", "{output}")),
            smoke=Size(_CLOAKED + ("--half-width", "12"),
                       ("estimate", "--input", "{input}", "--half-width", "12",
                        "--output", "{output}")),
        ),
        Workload(
            "interval", "estimate",
            full=Size(_CLOAKED + ("--half-width", "40"),
                      ("estimate", "--input", "{input}", "--half-width", "40",
                       "--ci-level", "0.95", "--ci-full", "--ci-draws", "4096",
                       "--output", "{output}")),
            smoke=Size(_CLOAKED + ("--half-width", "12"),
                       ("estimate", "--input", "{input}", "--half-width", "12",
                        "--ci-level", "0.95", "--ci-full", "--ci-draws", "256",
                        "--imax", "4", "--nscales", "8", "--output", "{output}")),
        ),
        Workload(
            # coverage simulates its own replicates from --seed; the set-up
            # writes the pilot replicate (seed + 0) that it calibrates on
            "coverage", "coverage",
            full=Size(("--model", "cloaked", "--alpha", "0.5", "--sigma", "0.25",
                       "--half-width", "25"),
                      ("coverage", "--alpha", "0.5", "--half-width", "25",
                       "--replicates", "100", "--seed", "{seed}",
                       "--output", "{output}")),
            smoke=Size(("--model", "cloaked", "--alpha", "0.5", "--sigma", "0.25",
                        "--half-width", "10"),
                       ("coverage", "--alpha", "0.5", "--half-width", "10",
                        "--replicates", "3", "--ci-draws", "256",
                        "--seed", "{seed}", "--output", "{output}")),
        ),
        Workload(
            "interval_d1", "estimate",
            full=Size(("--model", "poisson", "--dim", "1", "--half-width", "200"),
                      ("estimate", "--input", "{input}", "--dim", "1",
                       "--half-width", "200", "--ci-level", "0.95",
                       "--nscales", "6", "--ci-draws", "4096",
                       "--output", "{output}")),
            smoke=Size(("--model", "poisson", "--dim", "1", "--half-width", "50"),
                       ("estimate", "--input", "{input}", "--dim", "1",
                        "--half-width", "50", "--ci-level", "0.95",
                        "--nscales", "3", "--ci-draws", "256",
                        "--output", "{output}")),
        ),
    )
}

# Output fields that are a deterministic function of the input, compared
# tightly with the reference, and Monte-Carlo fields, compared within the
# reference's sampling tolerance.
DETERMINISTIC = {
    "estimate": ("alpha_hat", "j_min", "j_max", "n_points", "R"),
    "coverage": ("j_min", "j_max", "mean_alpha_hat", "sd_alpha_hat"),
}
MONTE_CARLO = {
    "estimate": ("ci.lo", "ci.hi"),
    "coverage": ("coverage",),
}


def field(data, path):
    for key in path.split("."):
        data = None if data is None else data.get(key)
    return data


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_output(workload, argv, data, n_points):
    """Invariants that hold for any seed; returns a list of problems."""
    problems = []
    for path in DETERMINISTIC[workload.kind] + MONTE_CARLO[workload.kind]:
        if "--ci-level" not in argv and path.startswith("ci."):
            continue
        if not _finite(field(data, path)):
            problems.append(f"{path} is {field(data, path)!r}, not a finite number")
    if problems:
        return problems
    if not data["j_min"] < data["j_max"]:
        problems.append(f"j_min {data['j_min']} is not below j_max {data['j_max']}")
    if workload.kind == "estimate":
        if data["n_points"] != n_points:
            problems.append(f"n_points {data['n_points']} but the input has {n_points}")
        if "--ci-level" in argv:
            ci = data["ci"]
            if not ci["lo"] <= ci["hi"]:
                problems.append(f"ci lo {ci['lo']} above hi {ci['hi']}")
            if ci["level"] != float(argv[argv.index("--ci-level") + 1]):
                problems.append(f"ci level {ci['level']} differs from the request")
        elif data["ci"] is not None:
            problems.append("a ci was reported but none was requested")
    else:
        reps = int(argv[argv.index("--replicates") + 1])
        if data["replicates"] != reps or not 0 <= data["covered"] <= reps:
            problems.append(f"covered {data['covered']} of {data['replicates']} "
                            f"replicates, {reps} requested")
        elif data["coverage"] != data["covered"] / reps:
            problems.append("coverage is not covered / replicates")
    return problems


def check_reference(workload, data, ref):
    """Compare an op's output with the stored reference for its seed."""
    problems = []
    for path in DETERMINISTIC[workload.kind]:
        want, got = ref["fields"][path], field(data, path)
        if got is None or abs(got - want) > TIGHT_REL * max(abs(want), 1.0):
            problems.append(f"{path} = {got!r}, reference {want!r}")
    for path, tol in ref["mc_tol"].items():
        want, got = ref["fields"][path], field(data, path)
        if got is None or abs(got - want) > tol:
            problems.append(f"{path} = {got!r}, reference {want!r} +- {tol!r}")
    return problems
