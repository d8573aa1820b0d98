//! The correctness oracle: a program's reference output is what the VM
//! prints for the asm of `direct::compile_direct`, the conventional
//! single-pass compiler that shares only the front end with the
//! attribute-grammar compiler (its asm text differs). A request is
//! correct when the AG compiler reported no semantic errors and its asm
//! prints the reference output.

use paragram_pascal::{direct, parser, run_asm};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Reference outputs and VM runs of the programs sent more than once.
#[derive(Default)]
pub struct Oracle {
    /// Reference output by program key.
    refs: HashMap<u64, String>,
    /// VM output by asm text. The VM is deterministic, so an asm text
    /// seen before prints what it printed then.
    runs: HashMap<String, Result<String, String>>,
}

/// The direct compiler's VM output for `src`.
///
/// # Errors
///
/// A syntax error, a semantic error the direct compiler reports, or a
/// VM failure: none may occur on generated workloads.
pub fn reference_output(src: &str) -> Result<String, String> {
    let ast = parser::parse(src).map_err(|e| format!("reference parse: {e}"))?;
    let out = direct::compile_direct(&ast);
    if !out.errors.is_empty() {
        return Err(format!("reference compile: {:?}", out.errors));
    }
    run_asm(&out.asm).map_err(|e| format!("reference run: {e}"))
}

impl Oracle {
    /// Checks one output of the program `src`: no semantic errors, and
    /// the VM prints the reference output. A program sent again has a
    /// `key`, and its reference and VM runs are kept; a one-off
    /// program's are not. Returns a description of the mismatch, if any.
    pub fn check(
        &mut self,
        key: Option<u64>,
        src: &str,
        asm: &str,
        errs_empty: bool,
    ) -> Option<String> {
        if !errs_empty {
            return Some("the compiler reported semantic errors".into());
        }
        // One after the other, not side by side: together they would
        // push the process's peak RSS, which the benchmark reports,
        // past the peak of the request path.
        let Some(key) = key else {
            let reference = match reference_output(src) {
                Ok(out) => out,
                Err(why) => return Some(why),
            };
            return compare(&run_asm(asm), &reference);
        };
        let reference = match self.refs.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => match reference_output(src) {
                Ok(out) => e.insert(out),
                Err(why) => return Some(why),
            },
        };
        let got = self
            .runs
            .entry(asm.to_string())
            .or_insert_with(|| run_asm(asm));
        compare(got, reference)
    }
}

fn compare(got: &Result<String, String>, reference: &str) -> Option<String> {
    match got {
        Ok(out) if out == reference => None,
        Ok(out) => Some(format!(
            "output differs from the reference ({} vs {} bytes)",
            out.len(),
            reference.len()
        )),
        Err(e) => Some(format!("asm does not run: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragram_pascal::Compiler;

    const SRC: &str = "program p; var x: integer; begin x := 6 * 7; write(x) end.";

    #[test]
    fn accepts_the_ag_compilers_output_and_rejects_a_wrong_one() {
        let out = Compiler::new().compile(SRC).unwrap();
        let mut o = Oracle::default();
        assert_eq!(o.check(Some(1), SRC, &out.asm, true), None);
        // Same asm again: answered from the cache, same verdict.
        assert_eq!(o.check(Some(1), SRC, &out.asm, true), None);
        assert_eq!(o.check(None, SRC, &out.asm, true), None);
        assert!(o.check(Some(1), SRC, &out.asm, false).is_some());
        let other = Compiler::new()
            .compile("program p; begin write(43) end.")
            .unwrap();
        assert!(o.check(Some(1), SRC, &other.asm, true).is_some());
        assert!(o.check(None, SRC, &other.asm, true).is_some());
        assert!(o.check(Some(2), SRC, "garbage", true).is_some());
    }
}
