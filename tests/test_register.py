import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitternet import (
    ChainResult,
    DomainError,
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
    state = hadamard_all(init_pumped(n))
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
    branches = [(1.0, hadamard_all(init_pumped(n)))]
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
