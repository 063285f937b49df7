//! Table I: the failure taxonomy — symptoms, implicated domains, likely
//! causes.

use rsc_core::report::taxonomy_table;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Table I",
        "Taxonomy of failures",
        "static taxonomy; no simulation required",
    );
    println!(
        "{:<16} {:^7} {:^7} {:^7}  likely causes",
        "symptom", "user", "system", "hw"
    );
    println!("{}", "-".repeat(100));
    let table = taxonomy_table();
    let mut rows = Vec::new();
    for (symptom, user, system, hw, causes) in &table {
        let mark = |b: &bool| if *b { "x" } else { "." };
        println!(
            "{:<16} {:^7} {:^7} {:^7}  {}",
            symptom,
            mark(user),
            mark(system),
            mark(hw),
            causes
        );
        rows.push(vec![
            symptom.clone(),
            user.to_string(),
            system.to_string(),
            hw.to_string(),
            causes.clone(),
        ]);
    }
    rsc_bench::save_csv(
        "table1_taxonomy.csv",
        &[
            "symptom",
            "user_program",
            "system_software",
            "hardware_infra",
            "likely_causes",
        ],
        rows,
    );
}
