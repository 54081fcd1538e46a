"""Tests for the Byzantine attack zoo."""

import numpy as np
import pytest

from repro.attacks import (
    ALIEAttack,
    AttackContext,
    BatchAttackContext,
    ConstantVectorAttack,
    GradientReverseAttack,
    InnerProductManipulationAttack,
    LargeNormAttack,
    MimicAttack,
    RandomGaussianAttack,
    SignFlipAttack,
    ZeroGradientAttack,
    available_attacks,
    make_attack,
)


def make_context(rng, faulty=(3, 4), dim=2, with_honest=True):
    honest = (
        {i: rng.normal(size=dim) for i in range(3)} if with_honest else None
    )
    return AttackContext(
        iteration=5,
        estimate=rng.normal(size=dim),
        faulty_ids=list(faulty),
        true_gradients={i: rng.normal(size=dim) for i in faulty},
        honest_gradients=honest,
        rng=rng,
    )


class TestSimpleAttacks:
    def test_gradient_reverse(self, rng):
        ctx = make_context(rng)
        out = GradientReverseAttack().fabricate(ctx)
        for i in ctx.faulty_ids:
            assert np.allclose(out[i], -ctx.true_gradients[i])

    def test_gradient_reverse_scale(self, rng):
        ctx = make_context(rng)
        out = GradientReverseAttack(scale=3.0).fabricate(ctx)
        for i in ctx.faulty_ids:
            assert np.allclose(out[i], -3.0 * ctx.true_gradients[i])

    def test_random_gaussian_statistics(self):
        rng = np.random.default_rng(0)
        ctx = make_context(rng, faulty=tuple(range(2)), dim=2000)
        out = RandomGaussianAttack(standard_deviation=200.0).fabricate(ctx)
        sample = out[0]
        assert abs(sample.mean()) < 20.0
        assert sample.std() == pytest.approx(200.0, rel=0.1)

    def test_random_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            ctx = make_context(rng)
            outs.append(RandomGaussianAttack().fabricate(ctx))
        for i in outs[0]:
            assert np.array_equal(outs[0][i], outs[1][i])

    # The smallest subnormal scales every |z| < 0.5 to a zero, so half of
    # those draws would come out -0.0 without normal()'s ``loc +``.
    @pytest.mark.parametrize("sd", [200.0, 5e-324])
    @pytest.mark.parametrize("faulty,dim", [(1, 2), (2, 3), (5, 1), (3, 7)])
    def test_random_batch_equals_per_trial_normal_draws(self, faulty, dim, sd):
        # The batch fill must be Generator.normal(0.0, sd) bit for bit —
        # signed zeros included — and consume each stream identically.
        attack = RandomGaussianAttack(standard_deviation=sd)
        for seed in range(40):
            batch_rngs = [np.random.default_rng((seed, s)) for s in range(4)]
            ref_rngs = [np.random.default_rng((seed, s)) for s in range(4)]
            for t in range(5):
                context = BatchAttackContext(
                    iteration=t,
                    estimates=np.zeros((4, dim)),
                    faulty_ids=list(range(faulty)),
                    true_gradients=np.zeros((4, faulty, dim)),
                    rngs=batch_rngs,
                )
                got = attack.fabricate_batch(context)
                expected = np.stack(
                    [rng.normal(0.0, sd, size=(faulty, dim))
                     for rng in ref_rngs]
                )
                assert got.tobytes() == expected.tobytes()
            assert [rng.bit_generator.state for rng in batch_rngs] == [
                rng.bit_generator.state for rng in ref_rngs
            ]

    def test_zero(self, rng):
        ctx = make_context(rng)
        out = ZeroGradientAttack().fabricate(ctx)
        for i in ctx.faulty_ids:
            assert np.array_equal(out[i], np.zeros(ctx.dim))

    def test_constant(self, rng):
        ctx = make_context(rng)
        out = ConstantVectorAttack([5.0, -5.0]).fabricate(ctx)
        for i in ctx.faulty_ids:
            assert np.array_equal(out[i], [5.0, -5.0])

    def test_constant_dim_mismatch(self, rng):
        ctx = make_context(rng, dim=3)
        with pytest.raises(ValueError):
            ConstantVectorAttack([1.0, 2.0]).fabricate(ctx)

    def test_sign_flip_matches_reverse_at_default(self, rng):
        ctx = make_context(rng)
        flip = SignFlipAttack().fabricate(ctx)
        rev = GradientReverseAttack().fabricate(ctx)
        for i in ctx.faulty_ids:
            assert np.allclose(flip[i], rev[i])

    def test_large_norm(self, rng):
        ctx = make_context(rng)
        out = LargeNormAttack(factor=1e3).fabricate(ctx)
        for i in ctx.faulty_ids:
            assert np.allclose(out[i], 1e3 * ctx.true_gradients[i])

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientReverseAttack(scale=0.0)
        with pytest.raises(ValueError):
            RandomGaussianAttack(standard_deviation=0.0)
        with pytest.raises(ValueError):
            LargeNormAttack(factor=-1.0)


class TestColludingAttacks:
    def test_alie_within_honest_spread(self, rng):
        ctx = make_context(rng)
        out = ALIEAttack(z_max=1.0).fabricate(ctx)
        honest = ctx.honest_stack()
        mean, std = honest.mean(axis=0), honest.std(axis=0)
        for i in ctx.faulty_ids:
            assert np.allclose(out[i], mean - std)

    def test_alie_all_faulty_agree(self, rng):
        ctx = make_context(rng)
        out = ALIEAttack().fabricate(ctx)
        vals = list(out.values())
        assert all(np.array_equal(v, vals[0]) for v in vals)

    def test_ipm_direction(self, rng):
        ctx = make_context(rng)
        out = InnerProductManipulationAttack(epsilon=0.5).fabricate(ctx)
        honest_mean = ctx.honest_stack().mean(axis=0)
        for i in ctx.faulty_ids:
            assert np.allclose(out[i], -0.5 * honest_mean)

    def test_mimic_copies_victim(self, rng):
        ctx = make_context(rng)
        out = MimicAttack(target_rank=0).fabricate(ctx)
        victim = ctx.honest_gradients[sorted(ctx.honest_gradients)[0]]
        for i in ctx.faulty_ids:
            assert np.array_equal(out[i], victim)

    def test_omniscience_required(self, rng):
        ctx = make_context(rng, with_honest=False)
        with pytest.raises(RuntimeError):
            ALIEAttack().fabricate(ctx)
        with pytest.raises(RuntimeError):
            InnerProductManipulationAttack().fabricate(ctx)
        with pytest.raises(RuntimeError):
            MimicAttack().fabricate(ctx)

    def test_requires_omniscience_flags(self):
        assert ALIEAttack.requires_omniscience
        assert InnerProductManipulationAttack.requires_omniscience
        assert MimicAttack.requires_omniscience
        assert not GradientReverseAttack.requires_omniscience


class TestAttackRegistry:
    def test_all_names_buildable(self):
        for name in available_attacks():
            attack = make_attack(name)
            assert attack.name == name or name == "constant"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_attack("not_an_attack")

    def test_paper_attacks_present(self):
        names = available_attacks()
        assert "gradient_reverse" in names
        assert "random" in names

    def test_paper_random_default_sigma(self):
        attack = make_attack("random")
        assert attack.standard_deviation == 200.0


class TestAttackContext:
    def test_dim_property(self, rng):
        ctx = make_context(rng, dim=7)
        assert ctx.dim == 7

    def test_honest_stack_sorted_by_id(self, rng):
        ctx = make_context(rng)
        stack = ctx.honest_stack()
        ids = sorted(ctx.honest_gradients)
        for row, i in zip(stack, ids):
            assert np.array_equal(row, ctx.honest_gradients[i])

    def test_honest_stack_requires_omniscience(self, rng):
        ctx = make_context(rng, with_honest=False)
        with pytest.raises(RuntimeError):
            ctx.honest_stack()

    @pytest.mark.parametrize("observe", [
        lambda ctx: ctx.honest_stack(),
        lambda ctx: MimicAttack().fabricate(ctx),
    ], ids=["honest_stack", "mimic"])
    def test_honest_stack_errors_name_the_cause(self, rng, observe):
        # No omniscience (None) and no observable honest message ({}) are
        # different faults: only the first is fixed on the simulator.
        ctx = make_context(rng, with_honest=False)
        with pytest.raises(RuntimeError, match="enable it on the simulator"):
            observe(ctx)
        ctx.honest_gradients = {}
        with pytest.raises(
            RuntimeError, match="no honest message is observable"
        ):
            observe(ctx)


class TestCrashAttack:
    def test_registered(self):
        assert "crash" in available_attacks()
        attack = make_attack("crash")
        assert attack.may_be_silent
        assert attack.silences(0, 0)

    def test_honest_until_the_crash_round(self, rng):
        from repro.attacks import CrashAttack

        attack = CrashAttack(crash_at=10)
        assert not attack.silences(3, 9)
        assert attack.silences(3, 10)
        ctx = make_context(rng)
        out = attack.fabricate(ctx)
        for i in ctx.faulty_ids:
            assert np.array_equal(out[i], ctx.true_gradients[i])

    def test_negative_crash_round_rejected(self):
        from repro.attacks import CrashAttack

        with pytest.raises(ValueError):
            CrashAttack(crash_at=-1)

    def test_other_attacks_never_silent(self):
        for name in available_attacks():
            attack = make_attack(name)
            if name == "crash":
                continue
            assert not attack.may_be_silent
            assert not attack.silences(0, 100)


class TestTimelineAwareContext:
    def test_staleness_defaults_to_fresh(self, rng):
        ctx = make_context(rng)
        assert ctx.staleness(3) == 0

    def test_staleness_from_view_rounds(self, rng):
        ctx = make_context(rng)
        ctx.iteration = 12
        ctx.view_rounds = {3: 9, 4: 12}
        assert ctx.staleness(3) == 3
        assert ctx.staleness(4) == 0
