//! Shared by the file-layout suites: byte pokes and the residencies to
//! open under.
#![allow(dead_code)] // each suite uses its own subset

use ring::mapped::OpenMode;

/// Heap everywhere, a kernel mapping too where there is one.
pub fn modes() -> Vec<OpenMode> {
    let mut modes = vec![OpenMode::Heap];
    #[cfg(all(unix, target_pointer_width = "64"))]
    modes.push(OpenMode::Mmap);
    modes
}

pub fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

pub fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}
