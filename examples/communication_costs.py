"""Communication accounting: analytic Table III plus a measured run.

Run:
    python examples/communication_costs.py

Shows both views the library offers: the closed-form per-client-type
transfer sizes of the paper's Table III, and the empirical meter a real
training run accumulates — including HeteFedRec's total traffic saving
over All Large (small clients move small payloads).
"""

from repro.api import (
    build_method,
    format_table3,
    HeteFedRecConfig,
    load_benchmark_dataset,
    run_table3,
    SyntheticConfig,
    train_test_split_per_user,
)


def main() -> None:
    # --- analytic view (Table III) ----------------------------------------
    costs = run_table3("bench", dataset="ml")
    # The table ends with HeteFedRec's only overhead vs a homogeneous
    # deployment of the same width: Θ_s for U_m clients, Θ_s + Θ_m for U_l.
    print(format_table3(costs))

    # --- measured view ------------------------------------------------------
    dataset = load_benchmark_dataset("ml", SyntheticConfig(scale=0.03, seed=0))
    clients = train_test_split_per_user(dataset, seed=0)
    print(f"\nmeasuring actual traffic over 3 epochs on {dataset.name} ...")

    totals = {}
    for method in ("all_small", "all_large", "hetefedrec"):
        config = HeteFedRecConfig(epochs=3, seed=0)
        trainer = build_method(method, dataset.num_items, clients, config)
        trainer.fit()
        totals[method] = trainer.meter.total
        print(
            f"  {method:12s}: {trainer.meter.total:>12,} scalars moved "
            f"({trainer.meter.per_client_round():,.0f} per client-round)"
        )

    saving = 1.0 - totals["hetefedrec"] / totals["all_large"]
    print(
        f"\nHeteFedRec moves {100 * saving:.0f}% less traffic than All Large —\n"
        "small clients ship small tables — while (per the paper) matching or\n"
        "beating its accuracy."
    )


if __name__ == "__main__":
    main()
