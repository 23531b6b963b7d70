//! BX003: typed errors instead of panics.

use std::collections::BTreeMap;

struct MissingKey(u32);

fn robust(map: &BTreeMap<u32, u64>, key: u32) -> Result<u64, MissingKey> {
    map.get(&key).copied().ok_or(MissingKey(key))
}

struct ParseError;

struct Parser;

impl Parser {
    /// A caller-defined `expect` that returns a `Result` is not
    /// `Option::expect`.
    fn expect(&mut self, _token: &str) -> Result<(), ParseError> {
        Ok(())
    }
}

fn parser_method(p: &mut Parser) -> Result<(), ParseError> {
    p.expect("<")?;
    Ok(())
}
