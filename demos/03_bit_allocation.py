"""Split a bit budget across frames, then trade a little of it for smoothness.

Step one solves the classic water-filling problem: minimize total
weighted distortion subject to the budget, met exactly by Newton steps on
the budget multiplier. Step two re-spends the same budget to also
flatten distortion differences between nearby frames, by descending the
cone-penalized objective from the step-one answer.
"""

from lfalloc import (
    AllocationProblem,
    RDModelParams,
    allocate,
    build_cone_penalty,
    evaluate_cost,
    penalized_objective,
    solve_step1,
    spiral_order,
    unify_weights,
)

# Four frames on a 2x2 grid with distinctly different curves: a frame
# with a steep curve profits more from extra bits than a shallow one.
grid = spiral_order(2, 2)
pairs = ((4.46e7, -0.261), (1.96e8, -0.383), (6.93e7, -0.284), (1.0e8, -0.33))
models = {
    coord: RDModelParams(alpha=a, beta=b)
    for coord, (a, b) in zip(grid.coding_order, pairs)
}
weights = unify_weights({coord: 1.0 for coord in grid.coding_order})
problem = AllocationProblem(
    grid=grid,
    weights=weights,
    models=models,
    budget=4e6,
    lam=5.0,
    min_rate=1e4,
)

# Step 1: pure distortion minimization.
step1 = solve_step1(problem)
print("step 1 (water-filling) rates:")
for coord in grid.coding_order:
    print(f"  frame ({coord.u},{coord.v}): {step1.rates[coord]:12.1f} bits")
print(f"  budget used: {step1.budget_used:.1f} of {problem.budget:.1f}")
print(f"  KKT residual: {step1.kkt_residual:.2e}")

cost1 = evaluate_cost(problem, step1.rates)
print(f"  weighted distortion: {cost1.weighted_distortion:.1f}")
print(f"  discontinuity:       {cost1.discontinuity:.4g}")
print(f"  joint cost T:        {cost1.total:.1f}")

# Step 2: same budget, but the objective now charges lambda times the
# norm of the linearized between-frame distortion differences.
result = allocate(problem)
print("\nstep 2 (consistency-aware) rates:")
for coord in grid.coding_order:
    shift = result.rates[coord] - step1.rates[coord]
    print(
        f"  frame ({coord.u},{coord.v}): {result.rates[coord]:12.1f} bits"
        f"  ({shift:+12.1f})"
    )
print(f"  budget used: {result.budget_used:.1f}")

cost2 = evaluate_cost(problem, result.rates)
print(f"  weighted distortion: {cost2.weighted_distortion:.1f}")
print(f"  discontinuity:       {cost2.discontinuity:.4g}")
print(f"  joint cost T:        {cost2.total:.1f}")

penalty = build_cone_penalty(problem, step1.rates)
print("\nlinearized objective (what step 2 actually descends):")
print(f"  at the step-1 rates: {penalized_objective(problem, penalty, step1.rates):.1f}")
print(f"  at the final rates:  {penalized_objective(problem, penalty, result.rates):.1f}")

drop = (cost1.discontinuity - cost2.discontinuity) / cost1.discontinuity
rise = (cost2.weighted_distortion - cost1.weighted_distortion) / cost1.weighted_distortion
print(
    f"\ntrade made: discontinuity down {100 * drop:.1f}% for"
    f" {100 * rise:.2f}% more weighted distortion"
)
