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


def _apply_single_qubit(amps: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    tensor = amps.reshape([2] * n)
    tensor = np.moveaxis(tensor, qubit, -1)
    tensor = tensor @ matrix.T
    return np.moveaxis(tensor, -1, qubit).reshape(-1)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def hadamard_all(state: SpinRegisterState) -> SpinRegisterState:
    """Common pi/2 rotation: up -> (up+down)/sqrt2, down -> (up-down)/sqrt2 on every qubit."""
    amps = state.amplitudes
    for q in range(state.n):
        amps = _apply_single_qubit(amps, _HADAMARD, q, state.n)
    return SpinRegisterState(n=state.n, amplitudes=amps)


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


def _project(state: SpinRegisterState, mask: np.ndarray) -> HeraldOutcome:
    kept = np.where(mask, state.amplitudes, 0.0)
    prob = float(np.sum(np.abs(kept) ** 2))
    if prob <= NORM_TOLERANCE:
        return HeraldOutcome(prob, None)
    return HeraldOutcome(prob, SpinRegisterState(n=state.n, amplitudes=kept / math.sqrt(prob)))


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
    photons = _photon_counts(state.n, i, j)
    return HeraldOutcomes(*(_project(state, photons == m) for m in range(3)))


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
    eta = loss.eta
    if eta == 0.0:
        raise DomainError("conditioning on clicks is impossible at zero detection efficiency")
    branches = [(1.0, hadamard_all(init_pumped(n)))]
    step_probs = []
    for q in range(n - 1):
        photons = _photon_counts(n, q, q + 1)
        clicks = ((photons == 1, eta), (photons == 2, 2.0 * eta * (1.0 - eta)))
        grown: list[tuple[float, SpinRegisterState]] = []
        for weight, state in branches:
            for mask, click_eff in clicks:
                prob, post = _project(state, mask)
                if post is None or click_eff == 0.0:
                    continue
                w = weight * (click_eff * prob)
                # a subnormal weight has lost its precision, and zero means no click at all
                if w < sys.float_info.min:
                    raise ProtocolError(
                        f"click weight on pair ({q}, {q + 1}) underflows at eta = {eta!r}"
                    )
                grown.append((w, post))
        total = sum(w for w, _ in grown)
        branches = [(w / total, s) for w, s in grown]
        step_probs.append(total)
    mixture = MixedOutcome(branches=tuple(WeightedState(w, s) for w, s in branches))
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
    they diverge by the reported (not reconciled) discrepancy.
    """
    rows = []
    for eta in etas:
        rows.append(
            FidelitySweepRow(
                eta=float(eta),
                fidelity_published=published_model_fidelity(n, eta),
                fidelity_enumeration=run_ghz_chain_with_loss(n, LossModel(eta)).fidelity,
            )
        )
    return tuple(rows)
