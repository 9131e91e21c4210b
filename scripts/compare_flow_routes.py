#!/usr/bin/env python3
"""Three routes to the circular orbit, printed side by side.

The planar model's physical flow can be computed (1) by integrating the
Dirac-bracket vector field, (2) from the closed-form on-surface rate, and
(3) from the reduced Hamiltonian U(r*(p_phi)) under the plain Poisson bracket
of the reduced chart. All three must coincide; this script sweeps angular
momentum and reports the spread.
"""

import argparse

import numpy as np

from diracmech import DiracFlow, IntegratorConfig, PoissonFlow, ScalarField, evolve
from diracmech.models import KlauderModel, RadialPotential


def reduced_rate(model, p_phi, steps=2000, dt=1e-3):
    """Route 3: evolve (phi, p_phi) under U(r*(p_phi)) on the reduced chart."""
    chart = model.reduced_chart

    def reduced_hamiltonian(z, model=model):
        return model.potential(model.reduced_radius(z[1]))

    h = ScalarField("U(r*)", chart, reduced_hamiltonian)
    traj = evolve(chart.point([0.0, p_phi]), PoissonFlow(h),
                  IntegratorConfig(dt=dt, steps=steps))
    return (traj.states[-1, 0] - traj.states[0, 0]) / traj.times[-1]


def dirac_rate(model, p_phi, steps=2000, dt=1e-3):
    """Route 1: full-chart Dirac flow."""
    x0 = model.embed_reduced(0.0, p_phi)
    traj = evolve(x0, DiracFlow(model.hamiltonian(), model.constraint_set),
                  IntegratorConfig(dt=dt, steps=steps))
    return (traj.states[-1, 1] - traj.states[0, 1]) / traj.times[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--k", type=float, default=1.0)
    parser.add_argument("--coeffs", type=float, nargs="+", default=[0.0, 0.0, 0.5],
                        help="potential polynomial coefficients, constant term first")
    args = parser.parse_args()

    model = KlauderModel(alpha=args.alpha, k=args.k,
                         potential=RadialPotential(tuple(args.coeffs)))
    print(f"alpha={args.alpha} k={args.k} U coeffs={args.coeffs}")
    print(f"{'p_phi':>8} {'dirac flow':>16} {'closed form':>16} {'reduced flow':>16} {'spread':>10}")
    worst = 0.0
    for p_phi in np.linspace(-4.0, 4.0, 9):
        if args.k == 0.0 and abs(p_phi) < 1e-12:
            continue
        rates = (dirac_rate(model, p_phi), model.phi_rate(p_phi),
                 reduced_rate(model, p_phi))
        spread = max(rates) - min(rates)
        worst = max(worst, spread)
        print(f"{p_phi:8.2f} {rates[0]:16.12f} {rates[1]:16.12f} {rates[2]:16.12f} "
              f"{spread:10.2e}")
    print(f"\nworst spread across routes: {worst:.3e}")


if __name__ == "__main__":
    main()
