//! BX004: checked conversions instead of `as`.

use std::num::TryFromIntError;

fn converts(slots: u64, count: usize) -> Result<(usize, u16), TryFromIntError> {
    let index = usize::try_from(slots)?;
    let on_disk = u16::try_from(count)?;
    Ok((index, on_disk))
}
