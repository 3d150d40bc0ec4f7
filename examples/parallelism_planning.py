"""Plan large-scale training for a frontier word LM (paper §6).

Walks the case-study ladder interactively: subbatch choice, the
data-parallel scaling curve, layer-wise model parallelism, and
embedding sharding — the Table 5 pipeline as a library API.

Run:  python examples/parallelism_planning.py
"""

from repro.hardware import V100_LIKE
from repro.planner import run_case_study, scale_data_parallel


def main() -> None:
    accel = V100_LIKE
    study = run_case_study(accel=accel)

    print("=== optimization ladder (Table 5) ===")
    for row in study.rows:
        mems = "/".join(f"{m:.0f}" for m in row.memory_per_accel_gb)
        print(f"{row.stage:38s} accel={row.accelerators:5d} "
              f"batch={row.batch_size:6d} mem={mems:>14s} GB  "
              f"days={row.days_per_epoch:8.1f}  "
              f"util={row.flop_utilization * 100:5.1f}%")
    print()
    print(f"algorithmic optimization speedup: "
          f"{study.algorithmic_speedup:.1f}x  [paper: 11.7x]")
    print()

    # -- the Figure 12 curve: how far does data parallelism alone go? ---
    step = study.cache_aware_step_time
    params = study.optimized_params
    points = scale_data_parallel(
        local_step_time=step,
        local_step_flops=step * accel.achievable_flops,
        params=params,
        subbatch=128,
        samples_per_epoch=77e9,
        samples_per_step_per_worker=128 * 80,
        accel=accel,
        workers=[1, 16, 64, 256, 1024, 4096, 16384],
    )
    print("=== data-parallel scaling (Figure 12) ===")
    print(f"{'workers':>8s} {'step (s)':>9s} {'allreduce':>10s} "
          f"{'days/epoch':>11s} {'util':>6s}")
    for p in points:
        print(f"{p.workers:8d} {p.step_time:9.2f} "
              f"{p.allreduce_time:10.2f} {p.epoch_days:11.2f} "
              f"{p.flop_utilization * 100:5.1f}%")
    print()
    print("communication overhead saturates: ring allreduce moves "
          "2(n-1)/n * grad bytes regardless of n, so utilization "
          "declines toward a floor while epoch time keeps dropping.")


if __name__ == "__main__":
    main()
