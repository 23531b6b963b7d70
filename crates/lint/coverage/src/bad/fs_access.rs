//! BX002: filesystem access outside the pager's file backend.

use std::io;

fn stash(data: &[u8]) -> io::Result<Vec<u8>> {
    #[expect(clippy::disallowed_methods, reason = "BX002 bad fixture")]
    let written = std::fs::write("leak.bin", data);
    written?;
    #[expect(clippy::disallowed_methods, reason = "BX002 bad fixture")]
    let back = std::fs::read("leak.bin")?;
    Ok(back)
}
