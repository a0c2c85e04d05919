//! Runs the complete experiment suite in paper order (README's
//! reproduction verdict quotes `--scale small` and `--scale medium`).
//! Besides the printed markdown, the run is captured as
//! `BENCH_<scale>.json` in the working directory (CI archives the
//! `--scale small` one as an artifact).

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list") {
        println!("Table 1  defaults: page 4KB, buffer 50 pages, p=4, |O|=100, k=5, r=0.1*diam");
        println!("fig11_anatomy        single 3NN query anatomy (time + I/O per approach)");
        println!("fig13_index_objects  index time/size vs object cardinality (CA)");
        println!("fig14_index_networks index time/size vs network");
        println!("fig15_object_update  object deletion/insertion time");
        println!("fig16_network_update edge deletion/insertion time");
        println!("fig17_knn            kNN time vs k / |O| / network");
        println!("fig18_range          range time vs r / |O| / network");
        println!("fig19_levels         hierarchy depth sweep (index vs query time)");
        println!("ablation             object distribution (footnote 3)");
        return;
    }
    let ctx = road_bench::experiments::Ctx::from_args();
    road_bench::table::start_recording();
    road_bench::experiments::run_all(&ctx);
    let tables = road_bench::table::take_recorded();
    let json = road_bench::report::suite_json(&ctx.scale, &tables);
    let path = format!("BENCH_{}.json", ctx.scale.name);
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {path} ({} tables)", tables.len()),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
