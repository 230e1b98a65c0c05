"""Seeded inputs and the operation list of each workload.

Inputs are made here with NumPy alone, as a pure function of the seed; the
program receives only the generated states. `runner` turns an operation
into a call into magicnoise and imports the package lazily, so a fresh
interpreter can time its own `import magicnoise`.

A run repeats its workload's list in whole rounds. Every list starts with
its workload's entry in FIRST_OP, a named-state operation that needs no
generated input; the untimed warm-up runs that same operation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import oracles

WORKLOADS = ("polytope-batch", "kd-state", "crit-subtheory", "cli-oneshot")

# A generated state is a random pure state mixed with this weight of a
# random full-rank state, so every input has full rank.
MIXING = 0.05
# A draw is kept only when its Wigner threshold reaches this value, so
# every generated state carries real magic for the thresholds to remove.
MIN_WIGNER_P = 0.3

POLYTOPE_TOL = 1e-6
KD_RESTARTS = 2  # the Fourier start and the state-adapted start, no seeded ones
KD_TOL = 0.125
CRIT_RESTARTS = 2
CRIT_TOL = 1e-3


@dataclass(frozen=True)
class Op:
    """One timed operation: a threshold computation or a CLI invocation."""

    label: str
    method: str  # polytope | kd | crit | cli
    rho: np.ndarray  # the input density matrix, for the oracles
    named: Optional[str] = None  # strange | norrell: built by the program
    argv: tuple = ()  # cli only
    needs_lp: bool = False  # the polytope oracle applies
    rerun_of: Optional[int] = None  # cli: must repeat that op's bytes


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def named_state(name: str) -> np.ndarray:
    vec = {"strange": [0.0, 1.0, -1.0], "norrell": [-1.0, 2.0, -1.0]}[name]
    v = np.array(vec, dtype=complex)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _pure(vec: np.ndarray) -> np.ndarray:
    v = vec / np.linalg.norm(vec)
    return np.outer(v, v.conj())


def magic_rich_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank mixture (1 - MIXING) |psi><psi| + MIXING sigma with a
    Wigner threshold of at least MIN_WIGNER_P."""
    while True:
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sigma = g @ g.conj().T
        sigma /= np.trace(sigma).real
        rho = (1.0 - MIXING) * _pure(psi) + MIXING * sigma
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        if oracles.wigner_threshold(rho) >= MIN_WIGNER_P:
            return rho


def magic_rich_vector(rng: np.random.Generator, d: int) -> str:
    """A pure magic-rich state as the text `--vec` takes, six decimals."""
    while True:
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        text = ",".join(f"{z.real:.6f}{z.imag:+.6f}j" for z in vec)
        if oracles.wigner_threshold(_pure(parse_vec(text))) >= MIN_WIGNER_P:
            return text


def parse_vec(text: str) -> np.ndarray:
    return np.array([complex(tok) for tok in text.split(",")])


def _named_op(method: str, name: str, **kw) -> Op:
    return Op(f"{method} d=3 {name}", method, named_state(name), named=name, **kw)


def _cli(label: str, rho: np.ndarray, argv: list[str], **kw) -> Op:
    return Op(label, "cli", rho, argv=tuple(argv), **kw)


def _threshold_argv(method, d, state, fmt, vec=None) -> list[str]:
    argv = ["threshold", "--method", method, "--d", str(d), "--state", state]
    if vec is not None:
        # `--vec -0.5...` reads as an unknown flag to argparse; `=` keeps it a value
        argv.append(f"--vec={vec}")
    return argv + ["--format", fmt]


# The first operation of each workload's list, also its untimed warm-up.
FIRST_OP = {
    "polytope-batch": _named_op("polytope", "strange", needs_lp=True),
    "kd-state": _named_op("kd", "strange"),
    "crit-subtheory": _named_op("crit", "strange"),
    "cli-oneshot": _cli(
        "wigner d=3 strange json", named_state("strange"), _threshold_argv("wigner", 3, "strange", "json")
    ),
}


def polytope_batch(seed: int) -> list[Op]:
    """strange and norrell, then 10 + 4 + 3 generated states at d = 3, 5, 7.

    Qutrits are the majority, so op_p50_s is a qutrit time; the d=7 states
    carry about half the round's time, so ops_per_s follows them. Several
    states per dimension average out how their cost varies from seed to
    seed.
    """
    rng = _rng(seed, "polytope-batch")
    ops = [FIRST_OP["polytope-batch"], _named_op("polytope", "norrell", needs_lp=True)]
    for d, count in ((3, 10), (5, 4), (7, 3)):
        for k in range(count):
            ops.append(
                Op(f"polytope d={d} #{k}", "polytope", magic_rich_state(rng, d), needs_lp=True)
            )
    return ops


def kd_state(seed: int) -> list[Op]:
    """strange and norrell, then two generated states at each of d = 5, 7."""
    rng = _rng(seed, "kd-state")
    ops = [FIRST_OP["kd-state"], _named_op("kd", "norrell")]
    for d in (5, 5, 7, 7):
        ops.append(Op(f"kd d={d} #{len(ops) % 2}", "kd", magic_rich_state(rng, d)))
    return ops


def crit_subtheory(seed: int) -> list[Op]:
    """strange and norrell, then two generated qutrit states."""
    rng = _rng(seed, "crit-subtheory")
    ops = [FIRST_OP["crit-subtheory"], _named_op("crit", "norrell")]
    for k in range(2):
        ops.append(Op(f"crit d=3 #{k}", "crit", magic_rich_state(rng, 3)))
    return ops


def cli_oneshot(seed: int) -> list[Op]:
    """Wigner and polytope at d = 3, 5, 7 over named and custom states in
    both formats, one scan, one validate, and a rerun of the d=5 polytope
    invocation whose bytes must match."""
    rng = _rng(seed, "cli-oneshot")
    vec5, vec7 = magic_rich_vector(rng, 5), magic_rich_vector(rng, 7)
    rho5, rho7 = _pure(parse_vec(vec5)), _pure(parse_vec(vec7))
    threshold = _threshold_argv
    ops = [
        FIRST_OP["cli-oneshot"],
        _cli("polytope d=3 norrell csv", named_state("norrell"), threshold("polytope", 3, "norrell", "csv"), needs_lp=True),
        _cli("wigner d=5 custom csv", rho5, threshold("wigner", 5, "custom", "csv", vec5)),
        _cli("polytope d=5 custom json", rho5, threshold("polytope", 5, "custom", "json", vec5), needs_lp=True),
        _cli("wigner d=7 custom json", rho7, threshold("wigner", 7, "custom", "json", vec7)),
        _cli("polytope d=7 custom csv", rho7, threshold("polytope", 7, "custom", "csv", vec7), needs_lp=True),
        _cli("scan d=5 custom csv", rho5, ["scan", "--d", "5", "--state", "custom", f"--vec={vec5}", "--format", "csv"]),
        _cli("validate gross d=7", np.eye(7) / 7, ["validate", "--builtin", "gross", "--d", "7"]),
    ]
    rerun = 3
    ops.append(
        Op(ops[rerun].label + " rerun", "cli", ops[rerun].rho, argv=ops[rerun].argv,
           needs_lp=True, rerun_of=rerun)
    )
    return ops


BUILDERS = {
    "polytope-batch": polytope_batch,
    "kd-state": kd_state,
    "crit-subtheory": crit_subtheory,
    "cli-oneshot": cli_oneshot,
}


def build(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)


def runner(workload: str) -> Callable[[Op], object]:
    """In-process call of one operation. For cli-oneshot the call is
    `magicnoise.cli.main(argv)` with stdout captured, returning
    (exit code, stdout bytes)."""
    if workload == "cli-oneshot":
        import contextlib
        import io

        from magicnoise import cli

        def run_cli(op: Op):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(op.argv))
            return code, buf.getvalue().encode()

        return run_cli

    from magicnoise import optimize, qudit, thresholds

    def state(op: Op):
        d = qudit.Dimension(op.rho.shape[0])
        if op.named is not None:
            return qudit.magic_state(op.named, d)
        return qudit.Operator(d, op.rho, role="state")

    def run(op: Op):
        rho = state(op)
        if op.method == "polytope":
            return thresholds.polytope_threshold(rho, tol=POLYTOPE_TOL)
        if op.method == "kd":
            config = optimize.OptimizerConfig(restarts=KD_RESTARTS)
            return thresholds.kd_threshold(rho, config=config, scope="state", tol=KD_TOL)
        config = optimize.OptimizerConfig(restarts=CRIT_RESTARTS)
        return thresholds.crit_threshold(rho, config=config, scope="subtheory", tol=CRIT_TOL)

    return run
