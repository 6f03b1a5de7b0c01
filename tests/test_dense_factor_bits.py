"""The dense two-level factor (forward._TwoLevelLU) computes its cross
products in numpy's matmul, which releases the GIL, so that they can run on
two cores. Here it is held to the same arithmetic written in scipy's LAPACK
and dgemm alone, one cross after another: numpy's matmul must give dgemm's
bits at every dense layout the tests reach, so a BLAS build that sums these
products in another order fails here, not in a result digest."""

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from helmrecon import Grid, PwcField, forward, make_uniform_partition

B1, B2, W2 = 1.0, 2.0, 5.0


def _getrf(a):
    lu, piv, info = lapack.dgetrf(a, overwrite_a=True)
    assert info == 0
    return lu, piv


def _getri(lu, piv):
    return lapack.dgetri(lu, piv, lwork=int(lapack.dgetri_lwork(lu.shape[0])[0]),
                         overwrite_lu=True)[0]


class _Reference:
    """The factor of a _Dissection and its terms, cross by cross in scipy:
    getrf, W_i by getrs, S_TT -= E_i W_i, getri, Z_i = A_i^{-1} B_i's loop
    columns and R -= E_i Z_i, then getrf and getri of S_TT."""

    def __init__(self, dis, terms):
        buf = np.bincount(dis.slots, weights=terms, minlength=dis.offsets[-1] + 1)
        np.subtract(0.0, buf, out=buf)
        buf[dis.lap_slots] += dis.lap_values
        blocks, schur, self.r = dis.split(buf)
        self.dis, self.cross, pivots = dis, [], []
        for (a, b, e), rt, update_at in zip(blocks, dis.ring_t, dis.update_at):
            lu, piv = _getrf(a)
            pivots.append(np.abs(np.diagonal(lu)))
            w = lapack.dgetrs(lu, piv, b[:, :rt.size], overwrite_b=True)[0]
            buf[update_at[:, :rt.size]] -= blas.dgemm(1.0, e, w)  # S_TT
            inv, z = _getri(lu, piv), b[:, rt.size:]
            z[:] = blas.dgemm(1.0, inv, z)
            buf[update_at[:, rt.size:]] -= blas.dgemm(1.0, e, z)  # R
            self.cross.append((inv, w, z, e))
        self.schur = None
        if dis.coarse.size:
            lu, piv = _getrf(schur)
            pivots.append(np.abs(np.diagonal(lu)))
            self.schur = _getri(lu, piv)
        self.pivots = np.concatenate(pivots)

    def solve(self, rhs):
        dis = self.dis
        if rhs is None:
            r_t, sign = self.r, -1.0
        else:
            r_t, sign = np.asfortranarray(rhs[dis.coarse]), 1.0
            solved = []
            for c, (inv, _, _, e) in enumerate(self.cross):
                solved.append(blas.dgemm(1.0, inv, rhs[dis.crosses[c]]))
                r_t[dis.ring_t[c]] -= blas.dgemm(1.0, e, solved[-1])
        x_t = sign * r_t if self.schur is None else blas.dgemm(sign, self.schur, r_t)
        x = np.empty((dis.crosses.size + dis.coarse.size, x_t.shape[1]))
        x[dis.coarse] = x_t
        for c, (_, w, z, _) in enumerate(self.cross):
            rows = dis.crosses[c]
            x[rows] = blas.dgemm(-1.0, w, x_t[dis.ring_t[c]])
            if rhs is None:
                x.reshape(-1)[dis.bank_at[c]] -= z
            else:
                x[rows] += solved[c]
        return x


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("regions", [1, 2, 4])
@pytest.mark.parametrize("m", [9, 17, 33, 65, 129])
def test_the_dense_factor_has_the_bits_of_scipys_dgemm(m, regions, monkeypatch):
    built = []

    class Recorded(forward._TwoLevelLU):
        def __init__(self, dis, terms):
            built.append((dis, terms.copy()))
            super().__init__(dis, terms)

    monkeypatch.setattr(forward, "_TwoLevelLU", Recorded)
    part = make_uniform_partition(Grid(m), regions)
    values = 1.1 + 0.8 * (np.arange(regions * regions) % 7) / 7
    op = forward.HelmholtzOperator(PwcField(part, values, (B1, B2)), W2)
    assert op.factor == "dense" and len(built) == 1
    lu, ref = op._lu, _Reference(*built[0])
    assert _bytes(lu.pivots) == _bytes(ref.pivots)
    assert len(lu._cross) == len(ref.cross)
    for got, want in zip(lu._cross, ref.cross):
        for a, b in zip(got, want):  # the inverse, W_i, Z_i and E_i
            assert _bytes(a) == _bytes(b)
    assert _bytes(lu._r) == _bytes(ref.r)
    assert (lu._schur is None) == (ref.schur is None)
    if ref.schur is not None:
        assert _bytes(lu._schur) == _bytes(ref.schur)
    rhs = np.random.default_rng(m + regions).standard_normal((op._sk.n_x, 1))
    assert _bytes(lu.solve(rhs)) == _bytes(ref.solve(rhs))
    # the bank V_X by value: a column that is zero may carry the other sign
    bank, want = lu.solve(None), ref.solve(None)
    assert np.array_equal(bank, want)
    assert _bytes(bank[want != 0.0]) == _bytes(want[want != 0.0])
