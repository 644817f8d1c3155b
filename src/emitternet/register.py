"""Exact state-vector simulation of the photon-heralded GHZ protocol.

Qubits encode the two ground-state spin subspaces: up = spin-1/2, down =
spin-3/2. Driving the shared optical line of a qubit pair (i, j) excites
qubit i when it is down and qubit j when it is up, so a basis state emits
bit_i + 1 - bit_j photons (0, 1 or 2); conditioning on a single photon
projects the pair onto the {up-up, down-down} subspace.

Photon loss is modeled per emitted photon with end-to-end detection
efficiency eta and no dark counts. A lost photon from a two-photon event
fakes a single-photon herald, which mixes the heralded state; the
resulting mixtures are represented exactly as weighted pure-state
branches. The lossless chain is the eta = 1 case of the same walk.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ProtocolError
from .seeding import _index

MAX_QUBITS = 12
NORM_TOLERANCE = 1e-12

UP, DOWN = 0, 1  # basis bit values per qubit; qubit 0 is the most significant bit


def _check_qubit_count(n: int) -> None:
    """Refuse a register size before anything of size n or 2^n is built."""
    if not (2 <= n <= MAX_QUBITS):
        raise DomainError(f"qubit count must be in [2, {MAX_QUBITS}], got {n}")


@dataclass(frozen=True)
class SpinRegisterState:
    """Normalized complex amplitude vector over n two-level spins."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_qubit_count(self.n)
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2**self.n,):
            raise DomainError(f"state over {self.n} qubits needs {2**self.n} amplitudes")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise DomainError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinRegisterState):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.amplitudes, other.amplitudes)


def basis_state(pattern: str) -> SpinRegisterState:
    """State |pattern> from a string of 'u'/'d' characters, e.g. 'udud'."""
    _check_qubit_count(len(pattern))
    index = 0
    for ch in pattern.lower():
        if ch not in "ud":
            raise DomainError(f"pattern must contain only 'u' and 'd', got {pattern!r}")
        index = (index << 1) | (UP if ch == "u" else DOWN)
    amps = np.zeros(2 ** len(pattern), dtype=complex)
    amps[index] = 1.0
    return SpinRegisterState(n=len(pattern), amplitudes=amps)


def init_pumped(n: int) -> SpinRegisterState:
    """Optically pumped start state: alternating up/down/up/down..."""
    # checked here too: the pattern below is n characters long
    _check_qubit_count(n)
    return basis_state("".join("u" if k % 2 == 0 else "d" for k in range(n)))


def hadamard_all(state: SpinRegisterState) -> SpinRegisterState:
    """Common pi/2 rotation: up -> (up+down)/sqrt2, down -> (up-down)/sqrt2 on every qubit."""
    c = 1.0 / math.sqrt(2)
    amps = state.amplitudes
    for q in range(state.n):
        up, down = amps.reshape(2**q, 2, -1).transpose(1, 0, 2)
        # the leading 0.0 + starts each sum from zero, as a matrix product does,
        # so that the signs of zero amplitudes come out the same
        amps = np.stack(((0.0 + up * c) + down * c, (0.0 + up * c) + down * (-c)), axis=1)
    return SpinRegisterState(n=state.n, amplitudes=amps.reshape(-1))


class HeraldOutcome(NamedTuple):
    """One photon-number outcome: probability plus the conditioned state.

    ``post_state`` is None when the outcome has zero probability (an
    undefined conditional state is flagged, never fabricated).
    """

    probability: float
    post_state: SpinRegisterState | None


class HeraldOutcomes(NamedTuple):
    """Outcomes indexed by the number of photons the pair emits."""

    zero: HeraldOutcome
    one: HeraldOutcome
    two: HeraldOutcome


def _photon_counts(n: int, i: int, j: int) -> np.ndarray:
    """Photons emitted on the (i, j) line by each basis state: bit_i + 1 - bit_j."""
    idx = np.arange(2**n)
    return ((idx >> (n - 1 - i)) & 1) + 1 - ((idx >> (n - 1 - j)) & 1)


def _split(
    amps: np.ndarray, photons: np.ndarray, counts: list[list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Each amplitude row's parts that emit each of ``counts`` photons, and their masses."""
    kept = np.where(photons == np.array(counts), amps[..., None, :], 0.0)
    return kept, np.sum(np.abs(kept) ** 2, axis=-1)


def herald_pair(state: SpinRegisterState, i: int, j: int) -> HeraldOutcomes:
    """Photon-number-resolved herald on the shared line of qubits (i, j).

    Zero photons leave the up_i/down_j sector, one photon the
    {up-up, down-down} span with relative amplitudes preserved, two
    photons collapse the pair onto down_i/up_j. Probabilities are the
    squared-amplitude masses and sum to 1.
    """
    if i == j:
        raise DomainError("herald requires two distinct qubits")
    if not (0 <= i < state.n and 0 <= j < state.n):
        raise DomainError(f"qubit indices ({i}, {j}) out of range for n={state.n}")
    kept, probs = _split(state.amplitudes, _photon_counts(state.n, i, j), [[0], [1], [2]])
    outcomes = (
        HeraldOutcome(p, SpinRegisterState(state.n, part / math.sqrt(p)))
        if p > NORM_TOLERANCE
        else HeraldOutcome(p, None)
        for part, p in zip(kept, probs.tolist())
    )
    return HeraldOutcomes(*outcomes)


@dataclass(frozen=True)
class ChainResult:
    """Final state of the heralded chain and its success probability."""

    state: SpinRegisterState
    success_probability: float
    herald_probabilities: tuple[float, ...]


def run_ghz_chain(n: int) -> ChainResult:
    """Pump, rotate, then herald pairs (0,1), (1,2), ... on single photons.

    This is the eta = 1 run of ``run_ghz_chain_with_loss``, where no
    photon is lost and one branch survives. The success probability is
    the product of the single-photon probabilities, 2^(1-n) for the
    alternating start state.
    """
    lossless = run_ghz_chain_with_loss(n, LossModel(1.0))
    probs = lossless.step_click_probabilities
    return ChainResult(
        state=lossless.mixture.branches[0].state,
        success_probability=float(np.prod(probs)),
        herald_probabilities=probs,
    )


def ghz_target(n: int) -> SpinRegisterState:
    """Ideal n-qubit GHZ state with the sign the heralded chain produces.

    Each down-rotated qubit (odd position) contributes a minus sign to the
    all-down amplitude, giving (|u...u> + (-1)^(n//2) |d...d>)/sqrt2.
    """
    _check_qubit_count(n)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2)
    amps[-1] = (-1) ** (n // 2) / math.sqrt(2)
    return SpinRegisterState(n=n, amplitudes=amps)


@dataclass(frozen=True)
class WeightedState:
    weight: float
    state: SpinRegisterState

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise DomainError(f"branch weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class MixedOutcome:
    """Exact mixture as weighted pure-state branches (weights sum to 1)."""

    branches: tuple[WeightedState, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise DomainError("mixture needs at least one branch")
        total = sum(b.weight for b in self.branches)
        if abs(total - 1.0) > NORM_TOLERANCE:
            raise DomainError(f"branch weights sum to {total}, expected 1")


@dataclass(frozen=True)
class LossModel:
    """End-to-end photon detection efficiency."""

    eta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.eta <= 1.0):
            raise DomainError(f"detection efficiency must lie in [0, 1], got {self.eta}")


def published_branch_weight(eta: float) -> float:
    """Published closed-form weight p = 1/(3 - 2*eta) of the true herald branch."""
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"detection efficiency must lie in (0, 1], got {eta}")
    return 1.0 / (3.0 - 2.0 * eta)


def published_model_fidelity(n: int, eta: float) -> float:
    """Published fidelity model for the n-qubit chain: p^(n-1)."""
    n = _index(n, "n")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return published_branch_weight(eta) ** (n - 1)


def ghz_fidelity(mixture: MixedOutcome, n: int) -> float:
    """Overlap of a branch mixture with the ideal chain GHZ state."""
    target = ghz_target(n).amplitudes
    fidelity = 0.0
    for branch in mixture.branches:
        if branch.state.n != n:
            raise DomainError("branch qubit count does not match the target")
        fidelity += branch.weight * abs(np.vdot(target, branch.state.amplitudes)) ** 2
    return float(fidelity)


@dataclass(frozen=True)
class LossyChainResult:
    """Chain run under loss: final mixture, its GHZ fidelity, and diagnostics."""

    mixture: MixedOutcome
    fidelity: float
    step_click_probabilities: tuple[float, ...]


def _walk(n: int, etas: list[float]) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """The lossy chain walked once for every efficiency of ``etas`` (none zero).

    The branches are the rows of one amplitude array, each eta's weights a
    row of a ``(len(etas), branches)`` array. A branch is kept while some
    eta gives it a nonzero weight; an eta that does not reach it holds an
    exact zero there, which changes no sum and no later weight, so each eta
    gets its own walk's weights, branches and step totals bit for bit.

    Returns the amplitude rows, the weights and each eta's step totals. At
    the first pair where the click weight of some eta underflows, a
    :class:`ProtocolError` names the first such eta in list order.
    """
    amps = hadamard_all(init_pumped(n)).amplitudes[None, :]
    weights = np.ones((len(etas), 1))
    click_effs = np.array([[eta, 2.0 * eta * (1.0 - eta)] for eta in etas])[:, None, :]
    steps: list[list[float]] = [[] for _ in etas]
    for q in range(n - 1):
        kept, probs = _split(amps, _photon_counts(n, q, q + 1), [[1], [2]])
        grown = weights[:, :, None] * (click_effs * probs)
        live = (weights[:, :, None] != 0.0) & (probs > NORM_TOLERANCE) & (click_effs != 0.0)
        # a subnormal weight has lost its precision, and zero means no click at all
        under = np.flatnonzero(np.any(live & (grown < sys.float_info.min), axis=(1, 2)))
        if under.size:
            raise ProtocolError(
                f"click weight on pair ({q}, {q + 1}) underflows at eta = {etas[under[0]]!r}"
            )
        # C order keeps branch by branch, the one-photon part before the two-photon part
        keep = (probs > NORM_TOLERANCE) & np.any(grown != 0.0, axis=0)
        amps = kept[keep] / np.sqrt(probs[keep])[:, None]
        grown = grown[:, keep]
        totals = [sum(row) for row in grown.tolist()]
        weights = grown / np.array(totals)[:, None]
        for step, total in zip(steps, totals):
            step.append(total)
    return amps, weights, steps


def run_ghz_chain_with_loss(n: int, loss: LossModel) -> LossyChainResult:
    """Chain of lossy heralds with exact branch tracking.

    A click on pair (q, q+1) comes from the single-photon sector detected
    (weight eta * P1) or from the two-photon sector with exactly one
    photon detected (weight 2*eta*(1-eta) * P2, collapsing the pair to
    down_q/up_q+1). Conditioning is applied jointly: at each step every
    branch splits by its unnormalized click weights and the whole mixture
    is renormalized, i.e. the result is conditioned on a click at every
    step. A click weight too small for a normal float is refused.
    """
    if loss.eta == 0.0:
        raise DomainError("conditioning on clicks is impossible at zero detection efficiency")
    amps, weights, (step_probs,) = _walk(n, [loss.eta])
    states = (SpinRegisterState(n=n, amplitudes=a) for a in amps)
    mixture = MixedOutcome(branches=tuple(map(WeightedState, weights[0].tolist(), states)))
    return LossyChainResult(
        mixture=mixture,
        fidelity=ghz_fidelity(mixture, n),
        step_click_probabilities=tuple(step_probs),
    )


@dataclass(frozen=True)
class FidelitySweepRow:
    eta: float
    fidelity_published: float
    fidelity_enumeration: float

    @property
    def discrepancy(self) -> float:
        return self.fidelity_enumeration - self.fidelity_published


def fidelity_vs_eta_sweep(n: int, etas: Sequence[float]) -> tuple[FidelitySweepRow, ...]:
    """Published-model and branch-enumeration fidelities over a detection grid.

    Both columns equal 1 at eta = 1 and are monotone in eta; at eta < 1
    they diverge by the reported (not reconciled) discrepancy. One chain
    walk serves every eta, and each fidelity is that of
    :func:`run_ghz_chain_with_loss`, bit for bit, summed over the branches
    in the same order. Every eta is checked in list order before the
    walk, so the first invalid one is refused; then the walk refuses the
    first pair where some eta's click weight underflows.
    """
    columns = [(float(eta), published_model_fidelity(n, eta)) for eta in etas]
    if not columns:
        return ()
    amps, weights, _ = _walk(n, list(etas))
    target = ghz_target(n).amplitudes
    overlaps = [abs(np.vdot(target, row)) ** 2 for row in amps]
    rows = []
    for (eta, fidelity_published), eta_weights in zip(columns, weights.tolist()):
        fidelity = 0.0
        for weight, overlap in zip(eta_weights, overlaps):
            fidelity += weight * overlap  # an exact zero off this eta's branches
        rows.append(FidelitySweepRow(eta, fidelity_published, float(fidelity)))
    return tuple(rows)
