//! LEB128 varints and zigzag signed mapping.
//!
//! Block-id deltas and repeat counts are written as unsigned LEB128; signed
//! deltas go through the zigzag mapping first so small negative jumps
//! (backward branches) stay one byte.

/// Maps a signed value onto the unsigned line so small magnitudes of
/// either sign encode short: 0, -1, 1, -2, 2, ... → 0, 1, 2, 3, 4, ...
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends `value` to `out` as unsigned LEB128 (7 bits per byte, high bit
/// marks continuation).
pub fn write_leb(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 value from `bytes` starting at `*pos`, advancing
/// `*pos` past it.
///
/// # Errors
///
/// Returns a description if the input ends mid-varint or the value
/// overflows 64 bits (more than 10 bytes, or stray bits in the tenth).
pub fn read_leb(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err("varint truncated".to_owned());
        };
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        if shift == 63 && low > 1 {
            return Err("varint overflows u64".to_owned());
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err("varint longer than 10 bytes".to_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            1 << 20,
            -(1 << 20),
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn leb_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX];
        for &v in &values {
            write_leb(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_leb(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in 0u64..128 {
            let mut buf = Vec::new();
            write_leb(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn read_leb_rejects_hostile_inputs() {
        let read = |bytes: &[u8]| {
            let mut pos = 0;
            read_leb(bytes, &mut pos).map(|v| (v, pos))
        };
        // Truncated: empty input, and a continuation bit with nothing
        // after it at every length up to the maximum.
        assert_eq!(read(&[]), Err("varint truncated".to_owned()));
        for len in 1..10 {
            assert_eq!(
                read(&vec![0xff; len]),
                Err("varint truncated".to_owned()),
                "{len} continuation bytes"
            );
        }
        // Overlong: an eleventh byte is never read, even a zero one.
        let mut overlong = vec![0x80u8; 10];
        overlong.push(0x00);
        assert_eq!(
            read(&overlong),
            Err("varint longer than 10 bytes".to_owned())
        );
        // Overflowing past 64 bits: the tenth byte may carry only bit 63.
        for tenth in [0x02u8, 0x7e, 0x7f] {
            let mut bytes = vec![0xffu8; 9];
            bytes.push(tenth);
            assert_eq!(
                read(&bytes),
                Err("varint overflows u64".to_owned()),
                "tenth byte {tenth:#04x}"
            );
        }
        // The 10-byte maximum decodes exactly, and leaves `pos` after it.
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        assert_eq!(read(&max), Ok((u64::MAX, 10)));
        let mut top = vec![0x80u8; 9];
        top.push(0x01);
        assert_eq!(read(&top), Ok((1 << 63, 10)));
        // A redundant (zero-padded) but in-range encoding is accepted.
        assert_eq!(read(&[0x85, 0x80, 0x00]), Ok((5, 3)));
        // Trailing bytes are left for the caller.
        assert_eq!(read(&[0x7f, 0xff]), Ok((0x7f, 1)));
    }

    #[test]
    fn truncated_and_overlong_inputs_error() {
        let mut pos = 0;
        assert!(read_leb(&[0x80], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_leb(&[0x80; 11], &mut pos).is_err());
        // 10 bytes whose tenth carries more than the one remaining bit.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x7f);
        let mut pos = 0;
        assert!(read_leb(&bytes, &mut pos).is_err());
    }
}
