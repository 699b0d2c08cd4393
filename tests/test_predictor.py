"""Linear water-balance model: prediction, identification, diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchardrl.predictor import (
    MIN_FIT_ROWS,
    TREE1_MODEL,
    TREE2_MODEL,
    ObservationRow,
    PredictorModel,
    diagnostics,
    fit,
    load_observations_csv,
    predict_next,
    write_observations_csv,
)


def synth_rows(model, n, seed, noise_std=0.0, v0=6.0):
    """Sequential observation log driven by random irrigation and weather."""
    rng = np.random.default_rng(seed)
    rows = []
    v = v0
    for _ in range(n):
        a = float(rng.uniform(0.0, 0.4))
        p = float(rng.uniform(0.0, 0.3)) if rng.random() < 0.2 else 0.0
        e = float(rng.uniform(0.08, 0.28))
        v_next = predict_next(model, v, a, p, e)
        if noise_std > 0:
            v_next = max(0.0, v_next + float(rng.normal(0.0, noise_std)))
        rows.append(ObservationRow(soil_water=v, irrigation=a, precip=p,
                                   et=e, soil_water_next=v_next))
        v = v_next
    return rows


class TestPredictNext:
    def test_tree1_hand_value(self):
        got = predict_next(TREE1_MODEL, 5.0, 0.3, 0.0, 0.15)
        assert got == pytest.approx(4.93895, abs=1e-12)

    def test_identity_dynamics(self):
        ident = PredictorModel(c1=1.0, c2=0.0, c3=0.0, b=0.0)
        assert predict_next(ident, 5.3, 0.0, 0.0, 0.0) == 5.3

    def test_irrigation_precip_symmetry(self):
        a = predict_next(TREE1_MODEL, 5.0, 0.2, 0.1, 0.15)
        b = predict_next(TREE1_MODEL, 5.0, 0.1, 0.2, 0.15)
        assert a == pytest.approx(b, abs=1e-12)

    def test_floored_at_zero(self):
        model = PredictorModel(c1=0.9, c2=0.3, c3=-5.0, b=0.0)
        assert predict_next(model, 0.1, 0.0, 0.0, 2.0) == 0.0

    def test_cap_applied(self):
        assert predict_next(TREE1_MODEL, 5.0, 0.3, 0.0, 0.15, cap=4.5) == 4.5

    @given(v=st.floats(min_value=0.0, max_value=8.0),
           a=st.floats(min_value=0.0, max_value=0.6),
           e=st.floats(min_value=0.0, max_value=0.4))
    def test_affine_slopes(self, v, a, e):
        h = 1e-6
        m = TREE1_MODEL
        dv = (predict_next(m, v + h, a, 0.0, e) - predict_next(m, v, a, 0.0, e)) / h
        da = (predict_next(m, v, a + h, 0.0, e) - predict_next(m, v, a, 0.0, e)) / h
        de = (predict_next(m, v, a, 0.0, e + h) - predict_next(m, v, a, 0.0, e)) / h
        # interior points only (the 0-floor kinks the map at the boundary)
        if predict_next(m, v, a, 0.0, e) > 0.01:
            assert dv == pytest.approx(m.c1, abs=1e-4)
            assert da == pytest.approx(m.c2, abs=1e-4)
            assert de == pytest.approx(m.c3, abs=1e-4)

    def test_affine_slopes_exact(self):
        # exact slope identities at a fixed interior point
        m, v, a, e = TREE1_MODEL, 5.0, 0.2, 0.15
        assert predict_next(m, v + 1.0, a, 0.0, e) - predict_next(m, v, a, 0.0, e) \
            == pytest.approx(m.c1, abs=1e-9)
        assert predict_next(m, v, a + 1.0, 0.0, e) - predict_next(m, v, a, 0.0, e) \
            == pytest.approx(m.c2, abs=1e-9)
        assert predict_next(m, v, a, 0.0, e + 1.0) - predict_next(m, v, a, 0.0, e) \
            == pytest.approx(m.c3, abs=1e-9)

    @given(v=st.floats(min_value=0.0, max_value=8.0),
           a=st.floats(min_value=0.0, max_value=0.6),
           p=st.floats(min_value=0.0, max_value=1.5),
           e=st.floats(min_value=0.0, max_value=0.4))
    def test_water_conservation(self, v, a, p, e):
        conserving = PredictorModel(c1=1.0, c2=1.0, c3=-1.0, b=0.0)
        v_next = predict_next(conserving, v, a, p, e)
        if v_next > 0.0:
            assert v_next - v == pytest.approx((a + p) - e, abs=1e-9)


class TestFit:
    def test_exact_recovery_tree2(self):
        rows = synth_rows(TREE2_MODEL, 60, seed=1)
        model = fit(rows)
        assert model.c1 == pytest.approx(TREE2_MODEL.c1, abs=1e-9)
        assert model.c2 == pytest.approx(TREE2_MODEL.c2, abs=1e-9)
        assert model.c3 == pytest.approx(TREE2_MODEL.c3, abs=1e-9)
        assert model.b == pytest.approx(TREE2_MODEL.b, abs=1e-9)
        assert model.r_squared == pytest.approx(1.0, abs=1e-9)
        assert model.nrmse == pytest.approx(0.0, abs=1e-7)

    def test_noisy_recovery_tree1(self):
        rows = synth_rows(TREE1_MODEL, 60, seed=2, noise_std=0.01)
        model = fit(rows)
        assert model.c1 == pytest.approx(TREE1_MODEL.c1, abs=0.05)
        assert model.c2 == pytest.approx(TREE1_MODEL.c2, abs=0.05)
        assert model.c3 == pytest.approx(TREE1_MODEL.c3, abs=0.05)
        assert model.b == pytest.approx(TREE1_MODEL.b, abs=0.02)
        assert model.r_squared >= 0.97
        assert model.nrmse < 0.1

    def test_too_few_rows(self):
        rows = synth_rows(TREE1_MODEL, MIN_FIT_ROWS - 1, seed=3)
        with pytest.raises(ValueError, match="at least"):
            fit(rows)

    def test_constant_et_column_named(self):
        rows = [ObservationRow(soil_water=5.0 + 0.1 * i,
                               irrigation=0.1 * (i % 4), precip=0.0,
                               et=0.15, soil_water_next=5.0 + 0.05 * i)
                for i in range(12)]
        with pytest.raises(ValueError, match="column 'et'"):
            fit(rows)

    def test_implausible_fit_warns(self):
        runaway = PredictorModel(c1=1.08, c2=0.3, c3=-0.1, b=0.0)
        rows = synth_rows(runaway, 40, seed=4, v0=1.0)
        with pytest.warns(UserWarning, match="implausible"):
            model = fit(rows)
        assert model.c1 == pytest.approx(1.08, abs=1e-6)

    @settings(max_examples=25)
    @given(
        c1=st.floats(min_value=0.85, max_value=1.0),
        c2=st.floats(min_value=0.1, max_value=1.0),
        c3=st.floats(min_value=-1.0, max_value=-0.05),
        b=st.floats(min_value=0.0, max_value=0.05),
        seed=st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_exact_recovery_property(self, c1, c2, c3, b, seed):
        truth = PredictorModel(c1=c1, c2=c2, c3=c3, b=b)
        # i.i.d. interior states keep the floor inactive for every draw
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(40):
            v = float(rng.uniform(3.0, 7.0))
            a = float(rng.uniform(0.0, 0.4))
            p = float(rng.uniform(0.0, 0.3))
            e = float(rng.uniform(0.08, 0.28))
            rows.append(ObservationRow(soil_water=v, irrigation=a, precip=p, et=e,
                                       soil_water_next=predict_next(truth, v, a, p, e)))
        model = fit(rows)
        assert model.c1 == pytest.approx(c1, abs=1e-7)
        assert model.c2 == pytest.approx(c2, abs=1e-7)
        assert model.c3 == pytest.approx(c3, abs=1e-7)
        assert model.b == pytest.approx(b, abs=1e-7)


class TestDiagnostics:
    def test_perfect_predictions(self):
        rows = synth_rows(TREE1_MODEL, 30, seed=5)
        r2, nrmse = diagnostics(TREE1_MODEL, rows)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert nrmse == pytest.approx(0.0, abs=1e-9)

    def test_mean_predictor_r2_zero(self):
        rows = synth_rows(TREE1_MODEL, 30, seed=6)
        mean_v = float(np.mean([r.soil_water_next for r in rows]))
        # a model that always outputs the mean next-day level
        flat = PredictorModel(c1=0.0, c2=0.0, c3=0.0, b=mean_v)
        r2, _ = diagnostics(flat, rows)
        assert r2 == pytest.approx(0.0, abs=1e-9)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            diagnostics(TREE1_MODEL, [])

    def test_constant_target_rejected(self):
        rows = [ObservationRow(soil_water=5.0, irrigation=0.1 * i,
                               precip=0.0, et=0.1 + 0.01 * i,
                               soil_water_next=5.0) for i in range(10)]
        with pytest.raises(ValueError, match="constant"):
            diagnostics(TREE1_MODEL, rows)

    def test_nrmse_uses_observed_range(self):
        rows = [ObservationRow(soil_water=1.0, irrigation=0.0, precip=0.0,
                               et=0.1, soil_water_next=4.0),
                ObservationRow(soil_water=1.0, irrigation=0.1, precip=0.0,
                               et=0.1, soil_water_next=6.0)]
        flat = PredictorModel(c1=0.0, c2=0.0, c3=0.0, b=5.0)
        _, nrmse = diagnostics(flat, rows)
        assert nrmse == pytest.approx(1.0 / 2.0, abs=1e-12)  # rmse 1, range 2


class TestPredictorModelValidation:
    def test_r_squared_cannot_exceed_one(self):
        with pytest.raises(ValueError):
            PredictorModel(c1=0.9, c2=0.3, c3=-0.1, b=0.0, r_squared=1.1)

    def test_plausibility_flags(self):
        assert TREE1_MODEL.is_plausible()
        assert TREE2_MODEL.is_plausible()
        assert not PredictorModel(c1=1.2, c2=0.3, c3=-0.1, b=0.0).is_plausible()
        assert not PredictorModel(c1=0.9, c2=-0.3, c3=-0.1, b=0.0).is_plausible()
        assert not PredictorModel(c1=0.9, c2=0.3, c3=0.2, b=0.0).is_plausible()

    def test_published_tree_rows(self):
        assert (TREE1_MODEL.c1, TREE1_MODEL.c2, TREE1_MODEL.c3, TREE1_MODEL.b) \
            == (0.973, 0.288, -0.103, 0.003)
        assert TREE1_MODEL.r_squared == 0.982
        assert TREE1_MODEL.nrmse == 0.062
        assert (TREE2_MODEL.c1, TREE2_MODEL.c2, TREE2_MODEL.c3, TREE2_MODEL.b) \
            == (0.937, 0.325, -0.121, 0.013)


class TestObservationRows:
    def test_nonnegative_fields_enforced(self):
        with pytest.raises(ValueError):
            ObservationRow(soil_water=-1.0, irrigation=0.0, precip=0.0,
                           et=0.1, soil_water_next=5.0)

    def test_csv_round_trip(self, tmp_path):
        rows = synth_rows(TREE1_MODEL, 20, seed=7, noise_std=0.01)
        path = tmp_path / "obs.csv"
        write_observations_csv(path, rows)
        assert load_observations_csv(path) == rows
