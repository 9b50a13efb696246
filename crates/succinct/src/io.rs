//! Little-endian word primitives for the small checksummed stream
//! records beside the mapped index format (the shard manifest): index
//! payloads themselves are written and read in place by [`crate::mapped`].

use std::io::{self, Read, Write};

/// Writes a `u64` little-endian.
pub fn write_u64(w: &mut impl Write, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Reads a `u64` little-endian.
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_inputs_fail_cleanly() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(buf, [8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(
            read_u64(&mut buf.as_slice()).unwrap(),
            0x0102_0304_0506_0708
        );
        // A word cut short is an error, not a short value.
        let err = read_u64(&mut &buf[..5]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
