//! Records how the benchmark binary was built, for the `build` block every
//! result carries: compiler version, profile, flags and target features.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_default();
    let env = |key: &str| std::env::var(key).unwrap_or_default();
    // Flags from RUSTFLAGS and from `.cargo/config.toml` alike arrive here,
    // separated by 0x1f.
    let rustflags = env("CARGO_ENCODED_RUSTFLAGS").replace('\x1f', " ");
    println!("cargo:rustc-env=ROUTEBENCH_RUSTC={}", version.trim());
    println!("cargo:rustc-env=ROUTEBENCH_RUSTFLAGS={rustflags}");
    println!("cargo:rustc-env=ROUTEBENCH_PROFILE={}", env("PROFILE"));
    println!(
        "cargo:rustc-env=ROUTEBENCH_TARGET_FEATURES={}",
        env("CARGO_CFG_TARGET_FEATURE")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
