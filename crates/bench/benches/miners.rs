//! Microbench: the single-node miners (sequential Apriori, Eclat,
//! FP-Growth) on a scaled-down MushRoom profile — the classic algorithm
//! comparison backing the paper's related-work discussion.

use yafim_bench::microbench::{bench, black_box, header};
use yafim_core::{apriori, eclat, fp_growth, Support};
use yafim_data::PaperDataset;

fn main() {
    let tx = PaperDataset::Mushroom.generate_scaled(0.05);
    let support = Support::Fraction(0.35);

    header("miners_mushroom_5pct");
    bench("apriori", 10, || black_box(apriori(&tx, support).total()));
    bench("eclat", 10, || black_box(eclat(&tx, support).total()));
    bench("fp_growth", 10, || {
        black_box(fp_growth(&tx, support).total())
    });
}
