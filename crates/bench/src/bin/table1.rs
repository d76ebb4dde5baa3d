//! Table I — Prive-HD on FPGA vs Raspberry Pi vs GPU: inference
//! throughput (inputs/s) and energy per input (J).
//!
//! Uses the analytic platform models of `privehd-hw` (documented
//! estimates of each platform's effective op rate and power — see
//! docs/DESIGN.md §4); the reproduced quantity is the *shape*: the FPGA wins
//! throughput by ~10⁵× over the Pi and ~16× over the GPU, and energy by
//! ~5×10⁴× and ~300×.

use privehd_bench::report::{format_num, json_flag, print_table};
use privehd_core::QuantScheme;
use privehd_hw::design::FpgaDesign;
use privehd_hw::perf::{table1, Platform, PlatformKind, Workload};

fn main() {
    let workloads = Workload::paper_benchmarks();
    let rows_data = table1(&workloads);

    let mut rows = vec![vec![
        "".to_owned(),
        "Pi tput".to_owned(),
        "Pi J".to_owned(),
        "GPU tput".to_owned(),
        "GPU J".to_owned(),
        "FPGA tput".to_owned(),
        "FPGA J".to_owned(),
    ]];
    for r in &rows_data {
        let mut row = vec![r.workload.clone()];
        for (_, tput, energy) in &r.cells {
            row.push(format_num(*tput));
            row.push(format_num(*energy));
        }
        rows.push(row);
    }
    println!("Table I — throughput (inputs/s) and energy (J/input):");
    print_table(&rows);

    // Ratio summary, the numbers §IV-C quotes.
    let mut tput_vs_pi = 0.0;
    let mut tput_vs_gpu = 0.0;
    let mut energy_vs_pi = 0.0;
    let mut energy_vs_gpu = 0.0;
    for w in &workloads {
        let pi = Platform::paper(PlatformKind::RaspberryPi);
        let gpu = Platform::paper(PlatformKind::Gpu);
        let fpga = Platform::paper(PlatformKind::PriveHdFpga);
        tput_vs_pi += fpga.throughput(w) / pi.throughput(w);
        tput_vs_gpu += fpga.throughput(w) / gpu.throughput(w);
        energy_vs_pi += pi.energy_per_input(w) / fpga.energy_per_input(w);
        energy_vs_gpu += gpu.energy_per_input(w) / fpga.energy_per_input(w);
    }
    let n = workloads.len() as f64;
    println!();
    println!(
        "average FPGA speedup: {:.0}x vs Raspberry Pi (paper: 105,067x), \
         {:.1}x vs GPU (paper: 15.8x)",
        tput_vs_pi / n,
        tput_vs_gpu / n
    );
    println!(
        "average FPGA energy saving: {:.0}x vs Raspberry Pi (paper: 52,896x), \
         {:.0}x vs GPU (paper: 288x)",
        energy_vs_pi / n,
        energy_vs_gpu / n
    );

    // Structural cross-check: derive the FPGA throughput from the device
    // LUT budget + Eq. 15 resource model instead of an effective op rate.
    println!();
    println!("structural FPGA model (Kintex-7 XC7K325T, Eq. 15 pipelines):");
    let design = FpgaDesign::kintex7_325t();
    let mut rows = vec![vec![
        "".to_owned(),
        "pipelines".to_owned(),
        "cycles/input".to_owned(),
        "throughput".to_owned(),
        "J/input".to_owned(),
    ]];
    for w in &workloads {
        rows.push(vec![
            w.name.clone(),
            format_num(design.parallel_dims(w.features, QuantScheme::Bipolar, true) as f64),
            format_num(design.cycles_per_input(w, QuantScheme::Bipolar, true) as f64),
            format_num(design.throughput(w, QuantScheme::Bipolar, true)),
            format_num(design.energy_per_input(w, QuantScheme::Bipolar, true)),
        ]);
    }
    print_table(&rows);

    if json_flag() {
        for r in &rows_data {
            for (platform, tput, energy) in &r.cells {
                let rec = serde_json::json!({
                    "figure": "table1",
                    "workload": r.workload,
                    "platform": platform,
                    "throughput_per_s": tput,
                    "energy_j": energy,
                });
                println!("{rec}");
            }
        }
    }
}
