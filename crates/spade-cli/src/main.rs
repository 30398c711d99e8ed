//! `spade-cli` — command-line driver for the SPADE simulation workspace.
//!
//! ```text
//! spade-cli info  [--scale tiny|small|default|large]
//! spade-cli run   --benchmark kro [--kernel spmm|sddmm] [--k 32] [--pes 56]
//!                 [--rp N] [--cp N|all] [--rmatrix cache|bypass|victim]
//!                 [--barriers] [--format json|text] [--telemetry 256]
//! spade-cli trace kro [--kernel spmm|sddmm] [--k 32] [--pes 56]
//!                 [--window 256] [--out kro.trace.json]
//! spade-cli advise --benchmark kro [--k 32] [--pes 56]
//! spade-cli search --benchmark kro [--k 32] [--pes 56] [--full]
//!                 [--format json|text] [--telemetry 256]
//! spade-cli mm    --file matrix.mtx [--k 32] [--pes 56] [--format json|text]
//! spade-cli bench-perf [--scale tiny|small|default|large] [--k 32] [--pes 56]
//!                 [--gate-speedup X] [--out BENCH_sim.json]
//! ```

mod args;
mod commands;

use std::process::ExitCode;

/// Whether a panic payload is `println!` failing on a closed stdout
/// (e.g. `spade-cli info | head`): the reader went away, which is not an
/// error worth a backtrace.
fn is_broken_pipe(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<String>()
        .is_some_and(|s| s.contains("Broken pipe"))
}

fn main() -> ExitCode {
    // Keep the default hook for real panics but stay quiet on broken
    // pipes; the catch below turns those into the conventional exit code.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !is_broken_pipe(info.payload()) {
            default_hook(info);
        }
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match std::panic::catch_unwind(|| commands::dispatch(&argv)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        // An empty message means the subcommand already reported the
        // failure (e.g. `client` printing the daemon's error reply);
        // dumping the usage text over it would only bury the answer.
        Ok(Err(e)) if e.is_empty() => ExitCode::FAILURE,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
        Err(payload) if is_broken_pipe(payload.as_ref()) => {
            // 128 + SIGPIPE, what a signal death would report.
            ExitCode::from(141)
        }
        Err(payload) => std::panic::resume_unwind(payload),
    }
}
