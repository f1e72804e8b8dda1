//! Probes of `f3m_ir`: the parser and printer on the write corpus (the
//! text every `ingest` and `update` request carries), the verifier on the
//! pass modules (what the pass re-checks after each merge).

use f3m_ir::parser::parse_module;
use f3m_ir::printer::print_module;
use f3m_ir::verify::verify_module;
use f3m_ledger::report::{Read, Report};

use crate::spans::{timed, Spans};
use crate::Data;

pub fn probe(data: &Data, spans: &Spans, report: &mut Report) {
    let s = Some(spans);
    let (mut parse, mut print) = (Vec::new(), Vec::new());
    for (name, text) in &data.write_corpus {
        let mb = text.len() as f64 / 1e6;
        let (parsed, t) = timed(s, "ir.parser.parse_module", || parse_module(text));
        let Some(m) = report
            .tally
            .ok(parsed.map_err(|e| format!("{name}: {e:?}")))
        else {
            continue;
        };
        parse.push(mb / t);
        let (printed, t) = timed(s, "ir.printer.print_module", || print_module(&m));
        print.push(mb / t);
        report.tally.check(printed == *text, || {
            format!("{name}: print∘parse is not a fixpoint")
        });
    }
    report.samples("ir.parser.parse_mb_per_s", "MB/s", Read::Median, &parse);
    report.samples("ir.printer.print_mb_per_s", "MB/s", Read::Median, &print);

    let mut verify = Vec::new();
    for m in &data.pass_modules {
        let (ok, t) = timed(s, "ir.verify.verify_module", || verify_module(m));
        report
            .tally
            .check(ok.is_ok(), || format!("{}: does not verify", m.name));
        verify.push(t * 1e6 / m.defined_functions().len() as f64);
    }
    report.samples("ir.verify.us_per_fn", "us", Read::Median, &verify);
}
