import pytest
from hypothesis import settings

import mugl.objective

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def stalled_line_search(monkeypatch):
    """Every point but a centroid start evaluates above it, in its computed
    value and in difference form, so a line search from the centroid accepts
    no trial and ls_pgd_solve stops there on step_tol, uncertified."""
    real_point = mugl.objective._point

    def point(ctx, w):
        _, *pieces = real_point(ctx, w)
        return (0.0 if w.max() == w.min() else 1.0, *pieces)

    monkeypatch.setattr(mugl.objective, "_point", point)
    monkeypatch.setattr(mugl.objective, "_change", lambda ctx, w, pt, trial, trial_pt: 1.0)
