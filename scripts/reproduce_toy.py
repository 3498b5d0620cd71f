"""Worked three-point example, end to end.

Builds the triangle complex over (0,0), (1,1), (2,0), prints every admissible
pair's cost, solves at alpha = 0.75, then repeats on the near-gradient variant
(vertex 0 tilted to (0.05, 1)) to show the sweep and the constrained solve
disagreeing with the plain optimum.
"""

import math

from combidyn import (
    all_critical_threshold,
    alpha_sweep,
    assign_vertex_average,
    build_cost_model,
    build_problem,
    classify_recurrence,
    delaunay_2d,
    evaluate_matching,
    is_gradient,
    preset_field,
    solve_exact,
    solve_gradient_constrained,
)


def setup(preset):
    sample = preset_field(preset)
    K = delaunay_2d(sample.points)
    return K, assign_vertex_average(K, sample.vectors)


def show_solution(K, vectors, alpha):
    model = build_cost_model(K, vectors, alpha=alpha)
    matching = solve_exact(build_problem(model, K))
    recurrence = classify_recurrence(K, matching)
    cyclic = [list(s.cells) for s in recurrence.multi_cell()]
    arrows = ", ".join(f"{lo}: {up}" for lo, up in matching.pairs.tolist())
    print(f"  alpha={alpha}: objective {matching.objective:.6f}, "
          f"matched {{{arrows}}}, critical {matching.critical.tolist()}")
    print(f"  gradient: {is_gradient(K, matching)}"
          + (f", cyclic components {cyclic}" if cyclic else ""))
    return model, matching


def main():
    K, vectors = setup("toy")
    print(f"toy complex: {len(K)} cells, {len(K.pairs)} admissible pairs")
    model = build_cost_model(K, vectors, alpha=0.75)
    for (lo, up), c in zip(model.pairs.tolist(), model.pair_costs.tolist()):
        print(f"  c({lo},{up}) = {c:.4f}")
    show_solution(K, vectors, 0.75)
    t = all_critical_threshold(model)
    print(f"  all-critical below alpha = {t:.6f} = (1 - 1/sqrt(2))/2 "
          f"[check: {abs(t - (1 - 1/math.sqrt(2)) / 2):.1e}]")

    print()
    K, vectors = setup("grad_toy")
    print("grad_toy (vertex 0 tilted): cheapest matching is cyclic at alpha=0.15")
    _, m15 = show_solution(K, vectors, 0.15)
    show_solution(K, vectors, 0.14)

    model15 = build_cost_model(K, vectors, alpha=0.15)
    alpha_eff, swept = alpha_sweep(K, model15)
    print(f"  sweep: first gradient alpha on the default grid = {alpha_eff}, "
          f"objective {swept.objective:.6f}")

    constrained, rounds = solve_gradient_constrained(build_problem(model15, K), K)
    print(f"  constrained at 0.15: objective {constrained.objective:.6f} "
          f"after {rounds} re-solve(s)")
    print(f"  sweep result re-priced at 0.15: {evaluate_matching(model15, swept):.6f} "
          f"(constrained is cheaper or equal)")


if __name__ == "__main__":
    main()
