"""Independent reference computations used to pin expected values.

Three oracles, each deliberately built along a different code path than the
package, which computes the Bismut Ricci form from its closed form
rho = -(1/2) d J d log(u lam - p^2 - q^2) + d(J theta):

* left_invariant_curvature: for spatially constant states the whole
  geometry reduces to linear algebra on the 4-dimensional symmetry algebra
  with bracket [E0, E1] = E2.  Orthonormalization goes through a Cholesky
  factor, invariant-form exterior derivatives through the bracket formula
  (the package uses lookup tables plus spectral calculus).

* koszul_fd_lowered: the Koszul formula for the invariant frame evaluated
  with 6th-order centered finite differences of the hand-written metric
  matrix, valid for arbitrary states.

* moving_frame_curvature: the first-principles curvature of any state on
  the grid.  An orthonormal J-adapted frame, Levi-Civita by the Koszul
  formula from spectral derivatives of the frame, the torsion shift to the
  Bismut connection, the full frame curvature tensor, and the trace against
  J that defines the conventions:
    rho(X, Y) = (1/2) sum_a g(R^B(X, Y) J F_a, F_a) over an orthonormal
    frame, and s = (1/2) sum_a rho(F_a, J F_a).
  Its Levi-Civita part is checked against koszul_fd_lowered.
"""

import itertools

import numpy as np

from ktflow.hermitian_geometry import bismut_torsion
from ktflow.invariant_forms import (J_FRAME, MULTI_INDEX, InvariantForm,
                                    p11_projection)

# bracket [E_a, E_b] = C[a, b, c] E_c
STRUCTURE = np.zeros((4, 4, 4))
STRUCTURE[0, 1, 2] = 1.0
STRUCTURE[1, 0, 2] = -1.0

# J E_j = JMAT[i, j] E_i
JMAT = np.zeros((4, 4))
JMAT[1, 0] = 1.0
JMAT[0, 1] = -1.0
JMAT[3, 2] = 1.0
JMAT[2, 3] = -1.0


def metric_matrix(u, lam, p, q):
    """g(E_i, E_j) for the four-coefficient invariant metric."""
    return np.array([
        [u, 0.0, q, -p],
        [0.0, u, p, q],
        [q, p, lam, 0.0],
        [-p, q, 0.0, lam],
    ])


def homogeneous_scalar(u, lam, p, q):
    """Closed form of the Bismut scalar on constant states."""
    w = u - (p * p + q * q) / lam
    return -lam / (w * w)


def left_invariant_curvature(u, lam, p, q):
    """Bismut curvature data of a constant state by frame-algebra only.

    Returns a dict with the torsion 3-tensor H[i,j,k] = H(E_i,E_j,E_k),
    the Ricci form rho[i,j] = rho(E_i,E_j) and the scalar s.
    """
    G = metric_matrix(u, lam, p, q)
    L = np.linalg.cholesky(G)            # G = L L^T
    A = np.linalg.inv(L)                 # F_a = A[a,i] E_i is orthonormal
    # E_i = L[i,a] F_a

    # omega(E_i, E_j) = g(J E_i, E_j)
    omega = JMAT.T @ G
    # invariant 2-form: d omega(X,Y,Z) = -om([X,Y],Z) + om([X,Z],Y) - om([Y,Z],X)
    dom = (-np.einsum("abk,kc->abc", STRUCTURE, omega)
           + np.einsum("ack,kb->abc", STRUCTURE, omega)
           - np.einsum("bck,ka->abc", STRUCTURE, omega))
    # torsion H(X,Y,Z) = d omega(JX, JY, JZ)
    H = np.einsum("ia,jb,kc,ijk->abc", JMAT, JMAT, JMAT, dom)

    cF = np.einsum("ai,bj,ijk,kc->abc", A, A, STRUCTURE, L)
    HF = np.einsum("ai,bj,ck,ijk->abc", A, A, A, H)
    gamma = 0.5 * (cF - np.einsum("bca->abc", cF) + np.einsum("cab->abc", cF))
    gb = gamma + 0.5 * HF

    riem = (np.einsum("bce,ade->abcd", gb, gb)
            - np.einsum("ace,bde->abcd", gb, gb)
            - np.einsum("abe,ecd->abcd", cF, gb))

    # J in the orthonormal frame: J F_a = jF[b,a] F_b
    jF = np.einsum("ai,ki,kb->ba", A, JMAT, L)
    rho_F = 0.5 * np.einsum("abdc,dc->ab", riem, jF)
    s = 0.5 * np.einsum("ab,ba->", rho_F, jF)
    rho = np.einsum("ia,jb,ab->ij", L, L, rho_F)
    return {"H": H, "rho": rho, "s": float(s), "gamma_b_frame": gb}


# 6th-order centered first derivative, error O(h^6)
_STENCIL = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_OFFSETS = (-3, -2, -1, 0, 1, 2, 3)


def fd_derivative(field, axis, h):
    out = np.zeros_like(field)
    for w, k in zip(_STENCIL, _OFFSETS):
        if w != 0.0:
            out += w * np.roll(field, -k, axis=axis)
    return out / h


def koszul_fd_lowered(m):
    """g(nabla_{E_a} E_b, E_c) for any state, by finite differences.

    2 g(nabla_a b, c) = D_a g_bc + D_b g_ac - D_c g_ab
                      + g([a,b],c) - g([a,c],b) - g([b,c],a)
    with D_a nonzero only for the two base directions.
    """
    n = m.grid.n
    h = 1.0 / n
    G = np.zeros((4, 4, n, n))
    G[0, 0] = m.u
    G[1, 1] = m.u
    G[2, 2] = m.lam
    G[3, 3] = m.lam
    G[0, 2] = G[2, 0] = m.q
    G[0, 3] = G[3, 0] = -m.p
    G[1, 2] = G[2, 1] = m.p
    G[1, 3] = G[3, 1] = m.q

    D = np.zeros((4, 4, 4, n, n))      # D[a] = derivative of G along E_a
    for i in range(4):
        for j in range(4):
            D[0, i, j] = fd_derivative(G[i, j], 0, h)
            D[1, i, j] = fd_derivative(G[i, j], 1, h)

    bracket = (np.einsum("abk,kcxy->abcxy", STRUCTURE, G)
               - np.einsum("ack,kbxy->abcxy", STRUCTURE, G)
               - np.einsum("bck,kaxy->abcxy", STRUCTURE, G))
    deriv = (D
             + np.einsum("bacxy->abcxy", D)
             - np.einsum("cabxy->abcxy", D))
    return 0.5 * (deriv + bracket)


def orthonormal_frame(m):
    """J-adapted orthonormal frame rows over the coordinate frame (E1..E4).

    F1 = V1/sqrt(lam), F2 = V2/sqrt(lam); F3, F4 are the normalized
    horizontal lifts of the base directions, which for this model are
    already orthogonal to each other (the transverse metric is conformal
    to the flat one), so no extra orthogonalization step is needed.
    """
    n = m.grid.n
    a = m.q / m.lam                  # e1-component of mu1
    b = m.p / m.lam                  # e2-component of mu1
    inv_sqrt_lam = 1.0 / np.sqrt(m.lam)
    inv_sqrt_w = 1.0 / np.sqrt(m.u - (m.p * m.p + m.q * m.q) / m.lam)
    frame = np.zeros((4, 4, n, n))
    frame[0, 2] = inv_sqrt_lam
    frame[1, 3] = inv_sqrt_lam
    frame[2, 0] = inv_sqrt_w
    frame[2, 2] = -a * inv_sqrt_w
    frame[2, 3] = b * inv_sqrt_w
    frame[3, 1] = inv_sqrt_w
    frame[3, 2] = -b * inv_sqrt_w
    frame[3, 3] = -a * inv_sqrt_w
    return frame


def _antisymmetric_filling(form):
    """Full antisymmetric component array of a degree-3 form, (4,4,4,n,n)."""
    n = form.grid.n
    out = np.zeros((4, 4, 4, n, n))
    for pos, idx in enumerate(MULTI_INDEX[3]):
        values = form.coeffs[pos]
        for perm in itertools.permutations(range(3)):
            sign = 1.0
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            out[tuple(idx[k] for k in perm)] = sign * values
    return out


def moving_frame_curvature(m):
    """Bismut curvature of any state by first-principles moving-frame calculus.

    Pipeline: orthonormal J-adapted frame -> bracket structure functions
    (vertical part from the nilmanifold bracket, base part by spectral
    derivatives of the frame rows) -> Koszul formula for Levi-Civita ->
    torsion shift -> frame curvature -> Ricci trace against J -> scalar.
    Returns a dict with the frame rows (4, 4, n, n), the connection
    coefficients gamma_lc and gamma_b (4, 4, 4, n, n), the torsion H, the
    Ricci form rho, its (1,1) part rho11 and the scalar s.
    """
    frame = orthonormal_frame(m)
    grid = m.grid
    g = m.metric_tensor()               # (n, n, 4, 4)
    g_back = np.moveaxis(g, (2, 3), (0, 1))   # (4, 4, n, n)

    dx_frame = grid.derivative(frame, "x")
    dy_frame = grid.derivative(frame, "y")
    # D_a f = (F_a)^x dx f + (F_a)^y dy f: directional derivative along F_a
    def directional(dx_arr, dy_arr):
        return (np.einsum("axy,...xy->a...xy", frame[:, 0], dx_arr)
                + np.einsum("axy,...xy->a...xy", frame[:, 1], dy_arr))

    # brackets [F_a, F_b] over the coordinate frame: nilpotent part plus
    # derivative part (only the base components of F act as derivations)
    w = np.zeros((4, 4, 4, grid.n, grid.n))
    w[..., 2, :, :] += (np.einsum("axy,bxy->abxy", frame[:, 0], frame[:, 1])
                        - np.einsum("axy,bxy->abxy", frame[:, 1], frame[:, 0]))
    d_frame = directional(dx_frame, dy_frame)        # (a, b, j, x, y)
    w += d_frame - np.swapaxes(d_frame, 0, 1)

    # lowered structure functions c_{abc} = g([F_a, F_b], F_c)
    c_low = np.einsum("abjxy,jkxy,ckxy->abcxy", w, g_back, frame, optimize=True)

    # Koszul in an orthonormal frame: Gamma_{abc} = (c_abc - c_bca + c_cab)/2
    gamma_lc = 0.5 * (c_low
                      - np.transpose(c_low, (2, 0, 1, 3, 4))
                      + np.transpose(c_low, (1, 2, 0, 3, 4)))

    H = bismut_torsion(m)
    h_full = _antisymmetric_filling(H)
    h_frame = np.einsum("aixy,bjxy,ckxy,ijkxy->abcxy", frame, frame, frame, h_full,
                        optimize=True)
    gamma_b = gamma_lc + 0.5 * h_frame

    dx_gamma = grid.derivative(gamma_b, "x")
    dy_gamma = grid.derivative(gamma_b, "y")
    d_gamma = directional(dx_gamma, dy_gamma)        # (a, b, c, d, x, y)

    riemann = (d_gamma - np.swapaxes(d_gamma, 0, 1)
               + np.einsum("bcexy,adexy->abcdxy", gamma_b, gamma_b, optimize=True)
               - np.einsum("acexy,bdexy->abcdxy", gamma_b, gamma_b, optimize=True)
               - np.einsum("abexy,ecdxy->abcdxy", c_low, gamma_b, optimize=True))

    # J in the orthonormal frame; J-adaptation makes this the constant block
    # map, but we compute it from the frame to keep the trace convention-free
    frame_inv = np.moveaxis(np.linalg.inv(np.moveaxis(frame, (0, 1), (2, 3))),
                            (2, 3), (0, 1))          # (i, b, x, y): E_i = sum_b inv[i,b] F_b
    j_frame = np.einsum("aixy,ki,kbxy->baxy", frame, J_FRAME, frame_inv, optimize=True)

    rho_frame = 0.5 * np.einsum("abdcxy,dcxy->abxy", riemann, j_frame, optimize=True)
    s = 0.5 * np.einsum("abxy,baxy->xy", rho_frame, j_frame, optimize=True)

    rho_coords = np.einsum("iaxy,jbxy,abxy->ijxy", frame_inv, frame_inv, rho_frame,
                           optimize=True)
    rho = InvariantForm(grid, 2)
    for pos, (i, j) in enumerate(MULTI_INDEX[2]):
        rho.coeffs[pos] = rho_coords[i, j]
    return {"frame": frame, "gamma_lc": gamma_lc, "gamma_b": gamma_b, "H": H,
            "rho": rho, "rho11": p11_projection(rho), "s": s}
