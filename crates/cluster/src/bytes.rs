//! Byte-size estimation for virtual-time accounting.
//!
//! Shuffle, broadcast and cache costs all depend on how many bytes a value
//! occupies when serialized. [`ByteSize`] gives a cheap, deterministic
//! estimate: fixed-width types report their width, containers add a small
//! header plus their elements. The absolute numbers only need to be
//! *consistent*, since the cost model converts them with calibrated
//! bandwidths.

/// Estimated serialized size of a value, in bytes.
pub trait ByteSize {
    /// The estimate. Must be deterministic for a given value.
    fn byte_size(&self) -> u64;

    /// How many records the value stands for where the RDD engine counts
    /// records: one, unless the element is a block of many rows.
    fn records(&self) -> u64 {
        1
    }
}

macro_rules! fixed_width {
    ($($t:ty),* $(,)?) => {
        $(impl ByteSize for $t {
            #[inline]
            fn byte_size(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        })*
    };
}

fixed_width!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl ByteSize for () {
    fn byte_size(&self) -> u64 {
        0
    }
}

impl ByteSize for String {
    fn byte_size(&self) -> u64 {
        self.len() as u64 + 8
    }
}

impl ByteSize for &str {
    fn byte_size(&self) -> u64 {
        self.len() as u64 + 8
    }
}

impl<T: ByteSize> ByteSize for Vec<T> {
    fn byte_size(&self) -> u64 {
        8 + self.iter().map(ByteSize::byte_size).sum::<u64>()
    }
}

impl<T: ByteSize> ByteSize for Box<[T]> {
    fn byte_size(&self) -> u64 {
        8 + self.iter().map(ByteSize::byte_size).sum::<u64>()
    }
}

impl<T: ByteSize> ByteSize for Option<T> {
    fn byte_size(&self) -> u64 {
        1 + self.as_ref().map_or(0, ByteSize::byte_size)
    }
}

impl<T: ByteSize + ?Sized> ByteSize for &T {
    fn byte_size(&self) -> u64 {
        (**self).byte_size()
    }
}

impl<T: ByteSize> ByteSize for std::sync::Arc<T> {
    fn byte_size(&self) -> u64 {
        (**self).byte_size()
    }
}

impl<A: ByteSize, B: ByteSize> ByteSize for (A, B) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size()
    }
}

impl<A: ByteSize, B: ByteSize, C: ByteSize> ByteSize for (A, B, C) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size()
    }
}

/// Total estimated bytes of a slice of values.
pub fn slice_bytes<T: ByteSize>(items: &[T]) -> u64 {
    items.iter().map(ByteSize::byte_size).sum()
}

/// Total records a slice of values stands for ([`ByteSize::records`]).
pub fn slice_records<T: ByteSize>(items: &[T]) -> u64 {
    items.iter().map(ByteSize::records).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(7u32.byte_size(), 4);
        assert_eq!(7u64.byte_size(), 8);
        assert_eq!(true.byte_size(), 1);
    }

    #[test]
    fn strings_scale_with_length() {
        assert_eq!(String::from("abc").byte_size(), 11);
        assert_eq!("abcd".byte_size(), 12);
    }

    #[test]
    fn containers_add_header() {
        assert_eq!(vec![1u32, 2, 3].byte_size(), 8 + 12);
        assert_eq!(Vec::<u32>::new().byte_size(), 8);
        assert_eq!(Some(1u64).byte_size(), 9);
        assert_eq!(Option::<u64>::None.byte_size(), 1);
    }

    #[test]
    fn tuples_sum_components() {
        assert_eq!((1u32, 2u64).byte_size(), 12);
        assert_eq!((1u8, 2u8, String::from("x")).byte_size(), 1 + 1 + 9);
    }

    #[test]
    fn slice_helper() {
        let v = vec![String::from("a"), String::from("bb")];
        assert_eq!(slice_bytes(&v), 9 + 10);
    }
}
