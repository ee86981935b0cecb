//! L-ORPHAN fixture, linted as `crates/demo/src/lib.rs` beside one caller
//! file that names `fixture_called_elsewhere` and nothing else.

pub fn fixture_orphan() -> u32 {
    fixture_private_helper()
}

pub fn fixture_called_elsewhere() -> u32 {
    // A call from its own file does not keep `fixture_orphan` alive.
    fixture_orphan()
}

pub(crate) fn fixture_crate_only() -> u32 {
    1
}

fn fixture_private_helper() -> u32 {
    2
}

// lint: allow(L-ORPHAN): the fixture's justified exception
pub fn fixture_justified() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    pub fn fixture_test_helper() -> u32 {
        super::fixture_crate_only()
    }
}
