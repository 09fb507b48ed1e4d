//! Standalone entry point for the revision service; `revkb-cli serve`
//! runs the same launcher. See [`revkb_server::launch`] for the flags.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    revkb_server::launch::run(&args)
}
