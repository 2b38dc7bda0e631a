//! Quickstart: train an IVFPQ index, build the UpANNS PIM engine, and answer
//! a batch of queries.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use annkit::flat::FlatIndex;
use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::recall::recall_at_k;
use annkit::synthetic::SyntheticSpec;
use annkit::workload::WorkloadSpec;
use baselines::cpu::CpuFaissEngine;
use baselines::engine::AnnEngine;
use pim_sim::config::PimConfig;
use upanns::builder::UpAnnsBuilder;
use upanns::config::UpAnnsConfig;

fn main() {
    // ------------------------------------------------------------------
    // 1. Data. The real SIFT1B has 10⁹ vectors; here we generate a reduced
    //    SIFT-like dataset with the same statistical properties (cluster
    //    structure, size skew, code co-occurrence).
    // ------------------------------------------------------------------
    let n = 30_000;
    println!("Generating a SIFT-like dataset with {n} vectors ...");
    let dataset = SyntheticSpec::sift_like(n)
        .with_clusters(256)
        .with_seed(42)
        .generate_with_meta();
    // Work-scale projection: timing models treat every stored vector as
    // `scale` vectors of the modeled billion-entry dataset (results and
    // recall are computed on the actual data) — `UpAnnsConfig::work_scale`.
    let scale = 1e9 / n as f64;

    // ------------------------------------------------------------------
    // 2. Offline phase: train IVFPQ (64 coarse clusters, M = 16 bytes/vector)
    //    and build the UpANNS engine on a simulated 64-DPU UPMEM system.
    // ------------------------------------------------------------------
    println!("Training the IVFPQ index ...");
    let params = IvfPqParams::new(256, 16).with_train_size(8_000);
    let index = IvfPqIndex::train(&dataset.vectors, &params, 1);
    println!(
        "  indexed {} vectors, compressed to {:.1} MB (raw: {:.1} MB)",
        index.ntotal(),
        index.compressed_bytes() as f64 / 1e6,
        dataset.vectors.raw_bytes() as f64 / 1e6
    );

    // Historical workload used by the PIM-aware data placement (Opt1).
    let history = WorkloadSpec::new(4_000).with_seed(7).generate(&dataset);

    println!("Building the UpANNS engine (placement + co-occurrence encoding) ...");
    let mut engine = UpAnnsBuilder::new(&index)
        .with_config(UpAnnsConfig::upanns().with_work_scale(scale))
        .with_pim_config(PimConfig::paper_seven_dimms())
        .with_history(&history.queries, 16)
        .build();

    // ------------------------------------------------------------------
    // 3. Online phase: answer a batch of 1,000 queries (the paper's batch size),
    //    k = 10, nprobe = 16.
    // ------------------------------------------------------------------
    let batch = WorkloadSpec::new(1_000).with_seed(11).generate(&dataset);
    let outcome = engine.search_batch(&batch.queries, 16, 10);

    println!("\n=== UpANNS results (projected to 10^9-vector scale) ===");
    println!("batch size          : {}", outcome.batch_size());
    println!("simulated batch time: {:.3} ms", outcome.seconds * 1e3);
    println!("QPS                 : {:.0}", outcome.qps());
    println!(
        "QPS per watt        : {:.1}",
        outcome.qps_per_watt(&engine.energy_model())
    );
    println!(
        "DPU load balance    : max/avg = {:.2}",
        engine.last_balance_ratio()
    );
    println!("stage breakdown:\n{}", outcome.breakdown);

    // ------------------------------------------------------------------
    // 4. Accuracy: recall@10 against exact search, and a CPU baseline
    //    comparison on the same index.
    // ------------------------------------------------------------------
    let exact = FlatIndex::new(&dataset.vectors).search_batch(&batch.queries, 10);
    let recall = recall_at_k(&outcome.results, &exact, 10);
    println!("recall@10           : {recall:.3}");

    let mut cpu = CpuFaissEngine::new(&index).with_work_scale(scale);
    let cpu_out = cpu.search_batch(&batch.queries, 16, 10);
    println!("\n=== Faiss-CPU baseline (same index) ===");
    println!("QPS                 : {:.0}", cpu_out.qps());
    println!(
        "UpANNS speedup      : {:.2}x",
        outcome.qps() / cpu_out.qps()
    );
    let cpu_recall = recall_at_k(&cpu_out.results, &exact, 10);
    println!("recall@10           : {cpu_recall:.3} (identical algorithm, identical accuracy)");
}
