// Rule 3: allocations inside and outside a hot-path fence.
pub fn expand(work: &mut Vec<u32>, out: &mut String) {
    // roadlint: hot-path
    while let Some(x) = work.pop() {
        let fresh = Vec::new();
        let boxed = Box::new(x);
        let v = vec![x];
        let s = format!("{x}");
        let c = v.clone();
        // roadlint: allow(alloc) reason="cold error-path formatting, once per failure"
        let excused = x.to_string();
        out.push_str(&excused);
        let typed = Vec::<Box<dyn Fn() -> u32>>::with_capacity(4);
        drop((fresh, boxed, s, c, typed));
    }
    // roadlint: end hot-path
    let outside = Vec::new();
    drop::<Vec<u32>>(outside);
}
