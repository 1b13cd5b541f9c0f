//! Association-rule generation on top of a [`MiningResult`].
//!
//! The paper's motivating application (§V.D) mines medical case data "to
//! find the relationship in medicine" — relationships are association rules
//! `A ⇒ B` with their support, confidence and lift. This module derives them
//! from the frequent itemsets any of the miners produced.

use crate::types::{Itemset, MiningResult};

/// One association rule `antecedent ⇒ consequent`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Left-hand side.
    pub antecedent: Itemset,
    /// Right-hand side (disjoint from the antecedent).
    pub consequent: Itemset,
    /// Support count of `antecedent ∪ consequent`.
    pub support: u64,
    /// `sup(A ∪ B) / sup(A)`.
    pub confidence: f64,
    /// `confidence / (sup(B) / N)` — how much more often B follows A than B
    /// occurs overall. Greater than 1 means positive correlation.
    pub lift: f64,
}

/// Generate every rule at or above `min_confidence` from `result`, which
/// must have been mined over `n_transactions` transactions (for lift). Rules
/// are sorted by descending confidence, then descending support, then
/// antecedent.
///
/// Panics if a frequent itemset is longer than 20 items (the subset
/// enumeration is bitmask-based; real FIM results are far shorter).
///
/// ```
/// use yafim_core::{apriori, generate_rules, Support};
///
/// let tx = vec![vec![1, 2], vec![1, 2], vec![1, 3]];
/// let result = apriori(&tx, Support::Count(2));
/// let rules = generate_rules(&result, tx.len() as u64, 0.9);
/// // {2} ⇒ {1} holds with confidence 1.0 (2 always co-occurs with 1).
/// assert!(rules.iter().any(|r| r.to_string().starts_with("{2} => {1}")));
/// ```
pub fn generate_rules(
    result: &MiningResult,
    n_transactions: u64,
    min_confidence: f64,
) -> Vec<Rule> {
    let mut rules = Vec::new();
    for (set, support) in result.iter() {
        let k = set.len();
        if k < 2 {
            continue;
        }
        assert!(k <= 20, "itemsets longer than 20 are not supported");
        let items = set.items();
        // Every non-empty proper subset as antecedent.
        for mask in 1u32..((1 << k) - 1) {
            let mut ante = Vec::new();
            let mut cons = Vec::new();
            for (i, &item) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    ante.push(item);
                } else {
                    cons.push(item);
                }
            }
            let ante = Itemset::from_sorted(ante);
            let cons = Itemset::from_sorted(cons);
            let ante_sup = result
                .support_of(&ante)
                .expect("subsets of frequent itemsets are frequent");
            let cons_sup = result
                .support_of(&cons)
                .expect("subsets of frequent itemsets are frequent");
            let confidence = *support as f64 / ante_sup as f64;
            if confidence + 1e-12 < min_confidence {
                continue;
            }
            let lift = confidence / (cons_sup as f64 / n_transactions as f64);
            rules.push(Rule {
                antecedent: ante,
                consequent: cons,
                support: *support,
                confidence,
                lift,
            });
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("confidence is finite")
            .then(b.support.cmp(&a.support))
            .then(a.antecedent.cmp(&b.antecedent))
            .then(a.consequent.cmp(&b.consequent))
    });
    rules
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} => {}  (sup={}, conf={:.2}, lift={:.2})",
            self.antecedent, self.consequent, self.support, self.confidence, self.lift
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::apriori;
    use crate::types::Support;

    fn toy_result() -> (MiningResult, u64) {
        let tx = vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]];
        (apriori(&tx, Support::Count(2)), tx.len() as u64)
    }

    #[test]
    fn known_confidences() {
        let (r, n) = toy_result();
        let rules = generate_rules(&r, n, 0.0);
        // {2} ⇒ {5}: sup({2,5})=3, sup({2})=3 → confidence 1.0.
        let rule = rules
            .iter()
            .find(|r| r.antecedent == Itemset::single(2) && r.consequent == Itemset::single(5))
            .expect("rule exists");
        assert_eq!(rule.support, 3);
        assert!((rule.confidence - 1.0).abs() < 1e-12);
        // lift = 1.0 / (3/4) = 4/3.
        assert!((rule.lift - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn min_confidence_filters() {
        let (r, n) = toy_result();
        let all = generate_rules(&r, n, 0.0);
        let strict = generate_rules(&r, n, 1.0);
        assert!(strict.len() < all.len());
        assert!(strict.iter().all(|r| r.confidence >= 1.0 - 1e-12));
    }

    #[test]
    fn rules_come_from_itemsets_of_len_2_plus() {
        let (r, n) = toy_result();
        let rules = generate_rules(&r, n, 0.0);
        for rule in &rules {
            assert!(!rule.antecedent.is_empty());
            assert!(!rule.consequent.is_empty());
            // Antecedent and consequent are disjoint.
            for item in rule.consequent.items() {
                assert!(!rule.antecedent.contains(*item));
            }
        }
        // A 2-itemset yields 2 rules; count for {2,3,5}: 6 rules.
        let from_triple = rules
            .iter()
            .filter(|r| r.antecedent.len() + r.consequent.len() == 3)
            .count();
        assert_eq!(from_triple, 6);
    }

    #[test]
    fn sorted_by_confidence_desc() {
        let (r, n) = toy_result();
        let rules = generate_rules(&r, n, 0.0);
        for w in rules.windows(2) {
            assert!(w[0].confidence >= w[1].confidence - 1e-12);
        }
    }

    #[test]
    fn display_is_readable() {
        let (r, n) = toy_result();
        let rules = generate_rules(&r, n, 1.0);
        let s = rules[0].to_string();
        assert!(s.contains("=>"), "{s}");
        assert!(s.contains("conf=1.00"), "{s}");
    }
}
