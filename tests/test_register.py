import math
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emitternet.register
from emitternet import (
    ChainResult,
    DomainError,
    FidelitySweepRow,
    LossModel,
    LossyChainResult,
    MixedOutcome,
    ProtocolError,
    SpinRegisterState,
    WeightedState,
    basis_state,
    fidelity_vs_eta_sweep,
    ghz_fidelity,
    ghz_target,
    hadamard_all,
    herald_pair,
    init_pumped,
    published_branch_weight,
    published_model_fidelity,
    run_ghz_chain,
    run_ghz_chain_with_loss,
)
from emitternet.register import NORM_TOLERANCE, _photon_counts, _split

SQ2 = 1.0 / math.sqrt(2.0)


# Independent oracle: dictionary-based amplitude bookkeeping, written
# without any of the package's array machinery.
def _oracle_hadamard(amps: dict[str, complex]) -> dict[str, complex]:
    out: dict[str, complex] = {}
    for bits, a in amps.items():
        n = len(bits)
        for target in range(2**n):
            tbits = format(target, f"0{n}b")
            coeff = a
            for b, tb in zip(bits, tbits):
                coeff *= SQ2 * (-1.0 if (b == "1" and tb == "1") else 1.0)
            out[tbits] = out.get(tbits, 0.0) + coeff
    return {k: v for k, v in out.items() if abs(v) > 1e-14}


def _oracle_herald_one(amps: dict[str, complex], i: int, j: int):
    kept = {bits: a for bits, a in amps.items() if bits[i] == bits[j]}
    prob = sum(abs(a) ** 2 for a in kept.values())
    norm = math.sqrt(prob)
    return {k: v / norm for k, v in kept.items()}, prob


def _oracle_chain(n: int):
    amps = {"".join("0" if k % 2 == 0 else "1" for k in range(n)): 1.0 + 0.0j}
    amps = _oracle_hadamard(amps)
    success = 1.0
    for q in range(n - 1):
        amps, p = _oracle_herald_one(amps, q, q + 1)
        success *= p
    return amps, success


def _random_state(n: int, seed: int) -> SpinRegisterState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return SpinRegisterState(n=n, amplitudes=amps / np.linalg.norm(amps))


# The start state's rotation as it was before it became one reshape per
# qubit, verbatim: a matrix product on each qubit's moved axis. The
# references below start from it, not from the library's hadamard_all.
def _apply_single_qubit(amps: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    tensor = amps.reshape([2] * n)
    tensor = np.moveaxis(tensor, qubit, -1)
    tensor = tensor @ matrix.T
    return np.moveaxis(tensor, -1, qubit).reshape(-1)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _reference_hadamard_all(state: SpinRegisterState) -> SpinRegisterState:
    """Common pi/2 rotation: up -> (up+down)/sqrt2, down -> (up-down)/sqrt2 on every qubit."""
    amps = state.amplitudes
    for q in range(state.n):
        amps = _apply_single_qubit(amps, _HADAMARD, q, state.n)
    return SpinRegisterState(n=state.n, amplitudes=amps)


# The chain as it was before it became one lossy walk, kept as the
# reference: both chain functions verbatim, over the per-sector masks and
# the projection they used.
def _reference_herald_pair(state, i, j):
    n = state.n
    idx = np.arange(2**n)
    bit_i = (idx >> (n - 1 - i)) & 1
    bit_j = (idx >> (n - 1 - j)) & 1
    masks = {
        "zero": (bit_i == 0) & (bit_j == 1),
        "one": bit_i == bit_j,
        "two": (bit_i == 1) & (bit_j == 0),
    }
    outcomes = {}
    for label, mask in masks.items():
        kept = np.where(mask, state.amplitudes, 0.0)
        prob = float(np.sum(np.abs(kept) ** 2))
        post = None
        if prob > 1e-12:
            post = SpinRegisterState(n=state.n, amplitudes=kept / math.sqrt(prob))
        outcomes[label] = SimpleNamespace(probability=prob, post_state=post)
    return SimpleNamespace(**outcomes)


def _reference_run_ghz_chain(n: int) -> ChainResult:
    state = _reference_hadamard_all(init_pumped(n))
    probs = []
    for q in range(n - 1):
        outcome = _reference_herald_pair(state, q, q + 1).one
        if outcome.post_state is None:
            raise ProtocolError(f"single-photon herald on pair ({q}, {q + 1}) has zero probability")
        probs.append(outcome.probability)
        state = outcome.post_state
    return ChainResult(
        state=state,
        success_probability=float(np.prod(probs)),
        herald_probabilities=tuple(probs),
    )


def _reference_run_ghz_chain_with_loss(n: int, loss: LossModel) -> LossyChainResult:
    if loss.eta == 0.0:
        raise DomainError("conditioning on clicks is impossible at zero detection efficiency")
    eta = loss.eta
    branches = [(1.0, _reference_hadamard_all(init_pumped(n)))]
    step_probs = []
    for q in range(n - 1):
        grown: list[tuple[float, SpinRegisterState]] = []
        for weight, state in branches:
            outcomes = _reference_herald_pair(state, q, q + 1)
            w_one = eta * outcomes.one.probability
            w_two = 2.0 * eta * (1.0 - eta) * outcomes.two.probability
            if outcomes.one.post_state is not None and w_one > 0.0:
                grown.append((weight * w_one, outcomes.one.post_state))
            if outcomes.two.post_state is not None and w_two > 0.0:
                grown.append((weight * w_two, outcomes.two.post_state))
        total = sum(w for w, _ in grown)
        if total <= 1e-12:
            raise ProtocolError(f"no branch can produce a click on pair ({q}, {q + 1})")
        branches = [(w / total, s) for w, s in grown]
        step_probs.append(total)
    mixture = MixedOutcome(branches=tuple(WeightedState(w, s) for w, s in branches))
    return LossyChainResult(
        mixture=mixture,
        fidelity=ghz_fidelity(mixture, n),
        step_click_probabilities=tuple(step_probs),
    )


# The lossy chain and the sweep as they were before one walk served every
# eta, verbatim: one walk per eta, and the sweep a loop over the etas.
def _parent_run_ghz_chain_with_loss(n: int, loss: LossModel) -> LossyChainResult:
    eta = loss.eta
    if eta == 0.0:
        raise DomainError("conditioning on clicks is impossible at zero detection efficiency")
    # the branches as rows of one amplitude array, with their weights
    amps = hadamard_all(init_pumped(n)).amplitudes[None, :]
    weights = np.ones(1)
    click_effs = np.array([eta, 2.0 * eta * (1.0 - eta)])
    step_probs = []
    for q in range(n - 1):
        kept, probs = _split(amps, _photon_counts(n, q, q + 1), [[1], [2]])
        # C order keeps branch by branch, the one-photon part before the two-photon part
        keep = (probs > NORM_TOLERANCE) & (click_effs != 0.0)
        grown = (weights[:, None] * (click_effs * probs))[keep]
        # a subnormal weight has lost its precision, and zero means no click at all
        if np.any(grown < sys.float_info.min):
            raise ProtocolError(f"click weight on pair ({q}, {q + 1}) underflows at eta = {eta!r}")
        amps = kept[keep] / np.sqrt(probs[keep])[:, None]
        total = sum(grown.tolist())
        weights = grown / total
        step_probs.append(total)
    states = (SpinRegisterState(n=n, amplitudes=a) for a in amps)
    mixture = MixedOutcome(branches=tuple(map(WeightedState, weights.tolist(), states)))
    return LossyChainResult(
        mixture=mixture,
        fidelity=ghz_fidelity(mixture, n),
        step_click_probabilities=tuple(step_probs),
    )


def _parent_fidelity_vs_eta_sweep(n, etas):
    rows = []
    for eta in etas:
        rows.append(
            FidelitySweepRow(
                eta=float(eta),
                fidelity_published=published_model_fidelity(n, eta),
                fidelity_enumeration=_parent_run_ghz_chain_with_loss(n, LossModel(eta)).fidelity,
            )
        )
    return tuple(rows)


def _outcome(function, *args):
    """The result, or the type and message of the error."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _ruled_sweep(n, etas):
    """The parent loop's sweep, with the sweep's error rule: every eta is
    checked in list order first; then, of the etas whose own chain is
    refused, the one refused at the earliest pair, the first of them in list
    order, is named."""
    for eta in etas:
        float(eta)
        published_model_fidelity(n, eta)
    refused = [
        got
        for got in (_outcome(_parent_run_ghz_chain_with_loss, n, LossModel(eta)) for eta in etas)
        if isinstance(got, tuple)
    ]
    if refused:
        error_type, message = min(
            refused, key=lambda got: [int(q) for q in re.findall(r"on pair \((\d+),", got[1])]
        )
        raise error_type(message)
    return _parent_fidelity_vs_eta_sweep(n, etas)


# the CLI's default sweep grid, and three more
SWEEP_ETAS = [0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0, 0.3, 0.999, 1e-3]


class TestOneWalkForEveryEta:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_chain_matches_parent_bit_for_bit(self, n):
        for eta in SWEEP_ETAS:
            got = run_ghz_chain_with_loss(n, LossModel(eta))
            ref = _parent_run_ghz_chain_with_loss(n, LossModel(eta))
            assert [p.hex() for p in got.step_click_probabilities] == [
                p.hex() for p in ref.step_click_probabilities
            ]
            assert got.fidelity.hex() == ref.fidelity.hex()
            assert [b.weight.hex() for b in got.mixture.branches] == [
                b.weight.hex() for b in ref.mixture.branches
            ]
            assert [b.state.amplitudes.tobytes() for b in got.mixture.branches] == [
                b.state.amplitudes.tobytes() for b in ref.mixture.branches
            ]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_sweep_matches_parent_bit_for_bit(self, n):
        def bits(rows):
            return [
                (r.eta.hex(), r.fidelity_published.hex(), r.fidelity_enumeration.hex())
                for r in rows
            ]

        for etas in (SWEEP_ETAS, SWEEP_ETAS[::-1], [1.0], [1.0, 1.0], [0.85, 1, 0.85]):
            assert bits(fidelity_vs_eta_sweep(n, etas)) == bits(
                _parent_fidelity_vs_eta_sweep(n, etas)
            )

    @pytest.mark.parametrize(
        "etas",
        [
            [0.9, 1e-308, 1.5],
            [0.9, 1.5, 1e-308],
            [1e-308, 0.9],
            [0.9, 5e-324, 1e-310],
            [0.9, 1e-310, 0.0],
            [0.5, math.nan],
            [0.5, "0.5"],
            [1e-310],
            [],
        ],
    )
    @pytest.mark.parametrize("n", [1, 4, 13])
    def test_sweep_is_the_parent_loop_or_its_error_rule(self, n, etas):
        got = _outcome(fidelity_vs_eta_sweep, n, etas)
        assert got == _outcome(_ruled_sweep, n, etas)
        if n == 4 and etas[:3] in ([0.9, 1e-308, 1.5], [0.9, 1.5, 1e-308]):
            # the invalid eta is named before any walk
            assert got[0] is DomainError and "1.5" in got[1]
        if n == 4 and etas == [1e-308, 0.9]:
            assert got == (ProtocolError, "click weight on pair (0, 1) underflows at eta = 1e-308")

    def test_invalid_eta_is_refused_before_the_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(emitternet.register, "_walk", walk)
        with pytest.raises(DomainError, match="got 1.5"):
            fidelity_vs_eta_sweep(4, [1e-308, 0.5, 1.5, 2.0])

    def test_earlier_pair_wins_over_an_earlier_eta(self):
        # at n = 12 the first eta's click weight underflows on pair (10, 11),
        # the second's on pair (0, 1); the one walk meets pair (0, 1) first
        etas = [4.8329302385716535e-307, 1e-308]
        got = _outcome(fidelity_vs_eta_sweep, 12, etas)
        assert got == _outcome(_ruled_sweep, 12, etas)
        assert got == (
            ProtocolError, f"click weight on pair (0, 1) underflows at eta = {etas[1]!r}"
        )
        # of two etas refused on the same pair, the first in list order is named
        assert _outcome(fidelity_vs_eta_sweep, 12, [0.5, 5e-324, 1e-310]) == (
            ProtocolError, "click weight on pair (0, 1) underflows at eta = 5e-324"
        )

    @pytest.mark.parametrize("eta", [1e-310, 5e-324, 0.0, 1e-300])
    def test_chain_errors_are_the_parents(self, eta):
        for n in (2, 4, 12):
            got = _outcome(run_ghz_chain_with_loss, n, LossModel(eta))
            ref = _outcome(_parent_run_ghz_chain_with_loss, n, LossModel(eta))
            if isinstance(ref, tuple):
                assert got == ref
            else:
                assert got.fidelity == ref.fidelity


class TestInitPumped:
    def test_two_qubits(self):
        assert init_pumped(2) == basis_state("ud")

    def test_four_qubits(self):
        assert init_pumped(4) == basis_state("udud")

    def test_three_qubits(self):
        assert init_pumped(3) == basis_state("udu")

    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_out_of_range(self, n):
        with pytest.raises(DomainError):
            init_pumped(n)


class TestHadamardAll:
    def test_plus_minus_pattern(self):
        state = hadamard_all(basis_state("ud"))
        np.testing.assert_allclose(state.amplitudes, [0.5, -0.5, 0.5, -0.5], atol=1e-15)

    def test_four_qubit_pattern_against_kron_oracle(self):
        state = hadamard_all(basis_state("udud"))
        plus = np.array([1, 1]) * SQ2
        minus = np.array([1, -1]) * SQ2
        expected = np.kron(np.kron(np.kron(plus, minus), plus), minus)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-14)

    def test_involution_on_basis_states(self):
        for pattern in ("ud", "udu", "dudd", "uuudd"):
            state = basis_state(pattern)
            twice = hadamard_all(hadamard_all(state))
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-13)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_reference_on_pumped_state_bit_for_bit(self, n):
        got = hadamard_all(init_pumped(n)).amplitudes
        assert got.tobytes() == _reference_hadamard_all(init_pumped(n)).amplitudes.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_reference_on_basis_states_bit_for_bit(self, n):
        # tobytes, unlike ==, tells -0.0 from 0.0
        for index in range(2**n):
            state = basis_state(format(index, f"0{n}b").replace("0", "u").replace("1", "d"))
            got = hadamard_all(state).amplitudes
            assert got.tobytes() == _reference_hadamard_all(state).amplitudes.tobytes()

    def test_norm_preserved_on_random_states(self):
        for seed in range(5):
            state = hadamard_all(_random_state(4, seed))
            assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestHeraldPair:
    def test_plus_minus_single_photon_projection(self):
        state = hadamard_all(basis_state("ud"))
        outcome = herald_pair(state, 0, 1).one
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(outcome.post_state.amplitudes, [SQ2, 0, 0, -SQ2], atol=1e-12)

    def test_dark_state_gives_zero_photons(self):
        outcomes = herald_pair(basis_state("ud"), 0, 1)
        assert outcomes.zero.probability == pytest.approx(1.0)
        assert outcomes.one.probability == 0.0
        assert outcomes.one.post_state is None
        assert outcomes.two.probability == 0.0
        assert outcomes.two.post_state is None

    def test_inverted_pair_gives_two_photons(self):
        outcomes = herald_pair(basis_state("du"), 0, 1)
        assert outcomes.two.probability == pytest.approx(1.0)
        assert outcomes.zero.probability == 0.0

    def test_aligned_pairs_emit_one_photon(self):
        for pattern in ("uu", "dd"):
            outcomes = herald_pair(basis_state(pattern), 0, 1)
            assert outcomes.one.probability == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self):
        for seed in range(8):
            state = _random_state(3, seed)
            outcomes = herald_pair(state, 0, 2)
            total = sum(o.probability for o in outcomes)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_two_photon_collapse_keeps_spectators(self):
        # (|du> + |dd>)/sqrt2 on the pair, spectator untouched
        state = hadamard_all(basis_state("udu"))
        outcome = herald_pair(state, 0, 1).two
        post = outcome.post_state
        for idx, amp in enumerate(post.amplitudes):
            bits = format(idx, "03b")
            if abs(amp) > 1e-12:
                assert bits[0] == "1" and bits[1] == "0"

    def test_matches_reference_on_random_states(self):
        for seed in range(20):
            n = 2 + seed % 5
            state = _random_state(n, seed)
            i, j = (int(q) for q in np.random.default_rng(seed).choice(n, 2, replace=False))
            got, ref = herald_pair(state, i, j), _reference_herald_pair(state, i, j)
            for outcome, expected in zip(got, (ref.zero, ref.one, ref.two)):
                assert outcome.probability == expected.probability
                if expected.post_state is None:
                    assert outcome.post_state is None
                else:
                    assert outcome.post_state == expected.post_state

    def test_invalid_pairs(self):
        state = basis_state("ud")
        with pytest.raises(DomainError):
            herald_pair(state, 0, 0)
        with pytest.raises(DomainError):
            herald_pair(state, 0, 5)


class TestRunGhzChain:
    def test_four_qubit_state(self):
        result = run_ghz_chain(4)
        amps = result.state.amplitudes
        assert abs(amps[0] - SQ2) < 1e-12
        assert abs(amps[-1] - SQ2) < 1e-12
        assert np.max(np.abs(amps[1:-1])) < 1e-12

    def test_two_qubit_state_and_probability(self):
        result = run_ghz_chain(2)
        np.testing.assert_allclose(result.state.amplitudes, [SQ2, 0, 0, -SQ2], atol=1e-12)
        assert result.success_probability == pytest.approx(0.5, abs=1e-12)

    def test_three_qubit_state(self):
        result = run_ghz_chain(3)
        expected = np.zeros(8)
        expected[0], expected[-1] = SQ2, -SQ2
        np.testing.assert_allclose(result.state.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_independent_bookkeeping_oracle(self, n):
        result = run_ghz_chain(n)
        oracle_amps, oracle_success = _oracle_chain(n)
        expected = np.zeros(2**n, dtype=complex)
        for bits, a in oracle_amps.items():
            expected[int(bits, 2)] = a
        np.testing.assert_allclose(result.state.amplitudes, expected, atol=1e-12)
        assert result.success_probability == pytest.approx(oracle_success, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_success_probability_halves_per_link(self, n):
        assert run_ghz_chain(n).success_probability == pytest.approx(2.0 ** (1 - n), abs=1e-12)

    def test_exactly_two_nonzero_amplitudes(self):
        for n in (2, 3, 4, 5, 6):
            amps = run_ghz_chain(n).state.amplitudes
            nonzero = np.abs(amps) > 1e-12
            assert nonzero.sum() == 2
            assert abs(abs(amps[0]) ** 2 - 0.5) < 1e-12
            assert abs(abs(amps[-1]) ** 2 - 0.5) < 1e-12

    def test_matches_reference_bit_for_bit(self):
        for n in range(2, 13):
            got, ref = run_ghz_chain(n), _reference_run_ghz_chain(n)
            assert got.state == ref.state
            assert got.success_probability == ref.success_probability
            assert got.herald_probabilities == ref.herald_probabilities

    def test_target_matches_chain_output(self):
        for n in range(2, 7):
            np.testing.assert_allclose(
                ghz_target(n).amplitudes, run_ghz_chain(n).state.amplitudes, atol=1e-12
            )


class TestTwoQubitLossyChain:
    """The n = 2 chain is one lossy herald on the rotated pumped pair."""

    def test_unit_efficiency_reduces_to_plain_herald(self):
        lossy = run_ghz_chain_with_loss(2, LossModel(1.0))
        assert len(lossy.mixture.branches) == 1
        branch = lossy.mixture.branches[0]
        assert branch.weight == 1.0
        plain = herald_pair(hadamard_all(basis_state("ud")), 0, 1).one.post_state
        assert branch.state == plain

    def test_enumeration_oracle_on_plus_minus(self):
        # oracle: four equal-weight spin configurations of the pair, with
        # photon counts 1, 0, 2, 1 and per-photon detection probability eta
        eta = 0.85
        weights = {"uu": 0.25, "ud": 0.25, "du": 0.25, "dd": 0.25}
        photons = {"uu": 1, "ud": 0, "du": 2, "dd": 1}
        one_click = 0.0
        one_click_true = 0.0
        for config, w in weights.items():
            m = photons[config]
            if m == 1:
                p_click = eta
            elif m == 2:
                p_click = 2 * eta * (1 - eta)
            else:
                p_click = 0.0
            one_click += w * p_click
            if m == 1:
                one_click_true += w * p_click
        oracle_weight = one_click_true / one_click
        assert oracle_weight == pytest.approx(1.0 / (2.0 - eta), rel=1e-12)

        lossy = run_ghz_chain_with_loss(2, LossModel(eta))
        true_branch, false_branch = lossy.mixture.branches
        assert true_branch.weight == pytest.approx(oracle_weight, rel=1e-12)
        assert false_branch.weight == pytest.approx(1.0 - oracle_weight, rel=1e-12)
        assert false_branch.state == basis_state("du")
        assert lossy.step_click_probabilities == pytest.approx((one_click,), rel=1e-12)
        # the published closed form differs from the enumerated weight
        assert true_branch.weight != pytest.approx(published_branch_weight(eta), abs=1e-3)

    def test_zero_efficiency_rejected(self):
        with pytest.raises(DomainError):
            run_ghz_chain_with_loss(2, LossModel(0.0))


class TestGhzFidelity:
    def test_published_closed_form(self):
        assert published_branch_weight(0.85) == pytest.approx(1.0 / 1.3, rel=1e-12)
        assert published_branch_weight(0.85) == pytest.approx(0.769231, abs=1e-6)

    def test_pure_ideal_state(self):
        mixture = MixedOutcome(branches=(WeightedState(1.0, ghz_target(3)),))
        assert ghz_fidelity(mixture, 3) == pytest.approx(1.0, abs=1e-12)

    def test_published_two_emitter_mixture(self):
        p = published_branch_weight(0.85)
        mixture = MixedOutcome(
            branches=(WeightedState(p, ghz_target(2)), WeightedState(1 - p, basis_state("du")))
        )
        assert ghz_fidelity(mixture, 2) == pytest.approx(p, abs=1e-12)

    def test_published_chain_fidelities(self):
        p = published_branch_weight(0.85)
        assert published_model_fidelity(2, 0.85) == pytest.approx(0.769231, abs=1e-6)
        assert published_model_fidelity(3, 0.85) == pytest.approx(p**2, rel=1e-12)
        assert published_model_fidelity(3, 0.85) == pytest.approx(0.591716, abs=1e-6)
        assert published_model_fidelity(4, 0.85) == pytest.approx(0.455166, abs=1e-6)

    def test_published_chain_equals_branch_composition(self):
        # chaining the published per-step split (p ideal, 1-p collapse)
        # leaves only the all-ideal branch overlapping the target
        for n in (2, 3, 4):
            p = published_branch_weight(0.85)
            assert published_model_fidelity(n, 0.85) == pytest.approx(p ** (n - 1), rel=1e-12)


class TestLossyChain:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        eta=st.floats(min_value=1e-300, max_value=1.0) | st.sampled_from([0.5, 0.85, 1.0]),
    )
    def test_matches_closed_form(self, n, eta):
        # oracle (derived by summing the branch tree by hand): with joint
        # conditioning on a click per step, every false branch and every
        # later step contributes click weight eta/2, while the surviving
        # ideal branch adds eta(1-eta)/2 per step, giving
        # F = 1 / (1 + (n-1)(1-eta)).
        result = run_ghz_chain_with_loss(n, LossModel(eta))
        assert result.fidelity == pytest.approx(1.0 / (1.0 + (n - 1) * (1.0 - eta)), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 12])
    @pytest.mark.parametrize("eta", [1e-12, 1e-300])
    def test_small_efficiency_runs(self, n, eta):
        result = run_ghz_chain_with_loss(n, LossModel(eta))
        assert result.fidelity == pytest.approx(1.0 / (1.0 + (n - 1) * (1.0 - eta)), abs=1e-12)

    @pytest.mark.parametrize("eta", [1e-310, 5e-324])
    def test_underflowing_click_weight_refused(self, eta):
        with pytest.raises(ProtocolError, match="underflows"):
            run_ghz_chain_with_loss(4, LossModel(eta))

    @pytest.mark.parametrize("eta", [1.0, 0.999, 0.85, 0.5, 0.1, 1e-6])
    def test_matches_reference_bit_for_bit(self, eta):
        for n in range(2, 13):
            got = run_ghz_chain_with_loss(n, LossModel(eta))
            ref = _reference_run_ghz_chain_with_loss(n, LossModel(eta))
            assert got.step_click_probabilities == ref.step_click_probabilities
            assert got.fidelity == ref.fidelity
            assert len(got.mixture.branches) == len(ref.mixture.branches)
            for b, r in zip(got.mixture.branches, ref.mixture.branches):
                assert b.weight == r.weight
                assert b.state == r.state

    def test_unit_efficiency_is_exact(self):
        for n in (2, 3, 4):
            result = run_ghz_chain_with_loss(n, LossModel(1.0))
            assert result.fidelity == pytest.approx(1.0, abs=1e-12)
            assert len(result.mixture.branches) == 1

    def test_three_qubit_explicit_branch_enumeration(self):
        # hand enumeration at eta: unnormalized weights
        #   ideal^2:            (eta/2) * (eta/2)
        #   ideal then false:   (eta/2) * (eta(1-eta)/2)
        #   false then ideal:   (eta(1-eta)/2) * (eta/2)
        eta = 0.7
        w_ii = (eta / 2) ** 2
        w_if = (eta / 2) * (eta * (1 - eta) / 2)
        w_fi = (eta * (1 - eta) / 2) * (eta / 2)
        total = w_ii + w_if + w_fi
        result = run_ghz_chain_with_loss(3, LossModel(eta))
        weights = sorted(b.weight for b in result.mixture.branches)
        assert weights == pytest.approx(sorted([w_ii / total, w_if / total, w_fi / total]))
        assert result.fidelity == pytest.approx(w_ii / total, abs=1e-12)

    def test_monotone_in_eta(self):
        etas = np.linspace(0.2, 1.0, 9)
        for n in (2, 4):
            fids = [run_ghz_chain_with_loss(n, LossModel(e)).fidelity for e in etas]
            assert all(a <= b + 1e-12 for a, b in zip(fids, fids[1:]))


class TestFidelitySweep:
    def test_unit_efficiency_row(self):
        rows = fidelity_vs_eta_sweep(3, [0.5, 1.0])
        assert rows[-1].fidelity_published == pytest.approx(1.0, abs=1e-12)
        assert rows[-1].fidelity_enumeration == pytest.approx(1.0, abs=1e-12)
        assert rows[-1].discrepancy == pytest.approx(0.0, abs=1e-12)

    def test_columns_monotone_and_divergent(self):
        etas = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        for n in (2, 3, 4):
            rows = fidelity_vs_eta_sweep(n, etas)
            published = [r.fidelity_published for r in rows]
            enum = [r.fidelity_enumeration for r in rows]
            assert all(a <= b + 1e-12 for a, b in zip(published, published[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(enum, enum[1:]))
            for row in rows[:-1]:
                assert row.discrepancy > 0.0  # enumeration sits above the published model

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            fidelity_vs_eta_sweep(3, [0.0, 0.5])


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            SpinRegisterState(n=2, amplitudes=np.array([1.0, 1.0, 0.0, 0.0]))

    def test_qubit_cap(self):
        with pytest.raises(DomainError):
            SpinRegisterState(n=13, amplitudes=np.zeros(2**13))

    @pytest.mark.parametrize("pattern", ["", "u", "ud" * 6 + "u"])
    def test_basis_state_qubit_cap(self, pattern):
        with pytest.raises(DomainError, match="qubit count"):
            basis_state(pattern)

    def test_mixture_validation(self):
        with pytest.raises(DomainError):
            MixedOutcome(branches=())
        with pytest.raises(DomainError):
            MixedOutcome(branches=(WeightedState(0.5, ghz_target(2)),))
        with pytest.raises(DomainError):
            WeightedState(-0.1, ghz_target(2))

    def test_loss_model_validation(self):
        with pytest.raises(DomainError):
            LossModel(-0.1)
        with pytest.raises(DomainError):
            LossModel(1.1)
