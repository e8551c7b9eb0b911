//! Planted violations, one per rule; `scripts/verify.sh` expects clippy to
//! refuse every one of them. Nothing here is meant to run.

/// no-random-order-collections.
pub fn random_order(m: std::collections::HashMap<u32, u32>) -> std::collections::HashSet<u32> {
    m.into_keys().collect()
}

/// no-os-entropy.
pub fn os_entropy() -> std::hash::RandomState {
    std::hash::RandomState::new()
}

/// no-wall-clock: clocks and OS threads.
pub fn wall_clock() -> (std::time::Instant, std::time::SystemTime) {
    std::thread::spawn(|| ());
    let _ = std::thread::Builder::new().spawn(|| ());
    (std::time::Instant::now(), std::time::SystemTime::now())
}

/// durable-io-boundary.
pub fn durable_io(f: &std::fs::File) -> std::io::Result<std::fs::OpenOptions> {
    f.sync_all()?;
    f.sync_data()?;
    Ok(std::fs::OpenOptions::new())
}

/// A reason-less allow and a stale expectation.
#[allow(dead_code)]
#[expect(clippy::disallowed_types, reason = "nothing here is disallowed")]
pub fn meta() {}

/// panic-policy, under the deny every hot-path root carries.
pub mod hot {
    #![deny(clippy::unwrap_used, clippy::todo, clippy::unimplemented)]

    /// A bare unwrap states no invariant.
    pub fn unwrap(x: Option<u32>) -> u32 {
        x.unwrap()
    }

    /// A placeholder.
    pub fn todo() {
        todo!()
    }

    /// Another placeholder.
    pub fn unimplemented() {
        unimplemented!()
    }

    /// An `expect` whose reason is not a literal (scripts/verify.sh).
    pub fn expect_without_reason(x: Option<u32>, why: &str) -> u32 {
        x.expect(
            why,
        )
    }
}
