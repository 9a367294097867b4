"""Exact perturbed-leader selection probabilities against sampling.

The probability that expert j minimizes s_j - xi_j / eps over i.i.d. Exp(1)
perturbations is a one-dimensional integral of a polynomial of degree N - 1,
which a Gauss-Legendre rule with ceil(N/2) nodes would give exactly in exact
arithmetic.  In floating point each probability is within
128 (1 + max_i |x_i|) ulps of the true integral, x_i = eps (min s - s_i), as
the tests measure against an 80-digit evaluation (see the docstring of
selection_probabilities_exact).  This demo cross-checks it against
brute-force sampling, which counts PROT's sampled choices, and shows how the learning rate eps interpolates between uniform choice
(eps -> 0) and follow-the-leader (eps -> infinity).

Run:  python3 demos/demo_selection_probabilities.py
"""

import numpy as np

from volfpl import RngSpec, selection_probabilities_exact, selection_probabilities_mc


def main():
    cum = np.array([3.0, 5.0, 4.0])
    print(f"cumulative losses: {cum.tolist()}")
    print(f"{'eps':>8} {'P(expert 1)':>12} {'P(expert 2)':>12} {'P(expert 3)':>12}")
    for eps in (0.01, 0.1, 0.5, 2.0, 10.0):
        p = selection_probabilities_exact(cum, eps)
        print(f"{eps:8.2f} {p[0]:12.4f} {p[1]:12.4f} {p[2]:12.4f}")
    print("small eps ignores the scores; large eps locks onto the leader\n")

    eps = 0.5
    exact = selection_probabilities_exact(cum, eps)
    mc = selection_probabilities_mc(cum, eps, 1_000_000, RngSpec(0))
    se = np.sqrt(exact * (1 - exact) / 1_000_000)
    print(f"exact vs 10^6-sample Monte Carlo at eps = {eps}:")
    for j in range(3):
        print(f"  expert {j + 1}: exact {exact[j]:.5f},  mc {mc[j]:.5f}  "
              f"({abs(exact[j] - mc[j]) / se[j]:.2f} se)")


if __name__ == "__main__":
    main()
