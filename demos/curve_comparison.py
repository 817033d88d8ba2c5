"""Diagnostic curves separate qualitatively different patterns.

C(j) = log(sum_i T_j(f_i)^2) / log R falls with slope d - alpha over the
trustworthy scale range, so steeper descent means stronger
hyperuniformity. Three processes on the same window: Poisson (alpha 0),
a perturbed lattice (alpha 1), and a lattice-matched cloud (alpha 2).
Each curve is also written to curve_<name>.csv for plotting.
"""

import numpy as np

from hyperalpha.cli import write_csv
from hyperalpha.estimator import DIAGNOSTIC_GRID, calibrate_jmax, select_jmin
from hyperalpha.geometry import normalize_intensity
from hyperalpha.simulate import cloaked_lattice, matched_process, poisson
from hyperalpha.tapers import build_taper_set
from hyperalpha.transforms import curve_C

R = 30.0


def one_curve(pattern, set_):
    norm, _ = normalize_intensity(pattern)
    return curve_C(norm, set_, DIAGNOSTIC_GRID)


def main():
    set_ = build_taper_set(2, 10)
    curves = {
        "poisson (alpha 0)":
            one_curve(poisson(1.0, R, seed=3), set_),
        "perturbed lattice (alpha 1)":
            one_curve(cloaked_lattice(1.0, 0.25, R, seed=3), set_),
        "matched cloud (alpha 2)":
            one_curve(matched_process(2.0, R, seed=3), set_),
    }
    j_max = calibrate_jmax(set_, R)
    print(f"calibrated j_max = {j_max:.3f}\n")
    print(f"{'process':<28} {'knee':>5} {'slope':>7} {'implied alpha':>14}")
    for name, curve in curves.items():
        j_min = select_jmin(curve, j_max)
        mask = (curve.grid >= j_min) & (curve.grid <= j_max)
        slope = np.polyfit(curve.grid[mask], curve.values[mask], 1)[0]
        print(f"{name:<28} {j_min:5.2f} {slope:7.2f} {2.0 - slope:14.2f}")
        write_csv(f"curve_{name.split()[0]}.csv",
                  np.column_stack([curve.grid, curve.values]), header="j,C")
    print("\nper-process curves written to curve_<name>.csv")


if __name__ == "__main__":
    main()
