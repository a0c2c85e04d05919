// The connecting third of the cross-file taint fixture: no byte read and
// no allocation appears in THIS file, so no file-local rule could see
// the flow from here — only the workspace call graph ties read_count's
// bytes to alloc_records' capacity.
pub fn decode(b: &[u8]) -> Vec<u64> {
    let n = read_count(b) as usize;
    alloc_records(n)
}
