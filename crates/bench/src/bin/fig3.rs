//! Fig. 3: DPF's best-alpha inefficiency under RDP accounting.
//!
//! Two blocks × two orders; DPF packs the two balanced tasks and stalls
//! at 2, while a best-alpha-aware schedule packs 4 by using α₁ on block
//! B1 and α₂ on block B2.

use dpack_bench::table::Table;
use dpack_core::scenarios::fig3_state;
use dpack_core::schedulers::{DPack, Dpf, GreedyArea, Optimal, Scheduler};

fn main() {
    let args = dpack_bench::cli::Args::parse();
    let state = fig3_state();
    println!("Fig. 3 — RDP accounting, 2 blocks x 2 orders, capacity 1.0 each");
    println!("T1/T2: (0.9, 0.9) on one block; T3/T5: (0.5, 1.5) on B1; T4/T6: (1.5, 0.5) on B2.\n");

    let dpack = DPack::default();
    let best = dpack.best_alphas(&state);
    println!(
        "DPack best alphas: B0 -> order index {:?}, B1 -> order index {:?}\n",
        best[0], best[1]
    );

    let mut table = Table::new(vec!["scheduler", "allocated", "tasks"]);
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(Dpf),
        Box::new(GreedyArea),
        Box::new(dpack),
        Box::new(Optimal::unbounded()),
    ];
    for s in &schedulers {
        let a = s.schedule(&state);
        table.row(vec![
            s.name().to_string(),
            a.scheduled.len().to_string(),
            format!("{:?}", a.scheduled),
        ]);
    }
    table.print();
    table
        .write_csv(format!("{}/fig3.csv", args.out_dir))
        .expect("write csv");
    println!("\nPaper: DPF allocates 2 tasks; the best-alpha-aware allocation packs 4.");
}
