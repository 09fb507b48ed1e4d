//! Definitional circuit construction.
//!
//! Theorem 3.4 of the paper represents the Boolean circuit deciding
//! "Hamming distance between X and Y equals k" as a polynomial-size
//! propositional formula whose internal gates become fresh letters `W`
//! constrained by equivalences. [`CircuitBuilder`] is that mechanism:
//! every [`CircuitBuilder::define`] call introduces a gate letter `w`
//! with the constraint `w ≡ gate-function`, and
//! [`CircuitBuilder::finish`] conjoins the gate definitions with the
//! output condition.
//!
//! Because every gate is defined by a biconditional, any assignment to
//! the circuit inputs extends to *exactly one* assignment of the gate
//! letters satisfying the definitions — the property that makes the
//! `W` letters harmless for query equivalence.

use revkb_logic::{Formula, Var, VarSupply};

/// A wire in a circuit under construction: either a constant or a
/// formula (an input letter or a defined gate letter).
pub type Wire = Formula;

/// Incremental builder of definitional circuits.
pub struct CircuitBuilder<'a, S: VarSupply> {
    /// Gate letters, in order of definition.
    aux: Vec<Var>,
    /// `gates[i]` is the function `aux[i]` is defined as.
    gates: Vec<Formula>,
    supply: &'a mut S,
}

impl<'a, S: VarSupply> CircuitBuilder<'a, S> {
    /// Start a builder drawing gate letters from `supply`.
    pub fn new(supply: &'a mut S) -> Self {
        Self {
            aux: Vec::new(),
            gates: Vec::new(),
            supply,
        }
    }

    /// Introduce a gate letter `w` constrained by `w ≡ f`, returning
    /// the wire `w`. Constants and bare literals pass through without a
    /// gate (they are already small).
    pub fn define(&mut self, f: Formula) -> Wire {
        match f {
            Formula::True | Formula::False | Formula::Var(_) => f,
            Formula::Not(ref inner) if matches!(**inner, Formula::Var(_)) => f,
            _ => {
                let w = self.supply.fresh_var();
                self.aux.push(w);
                self.gates.push(f);
                Formula::var(w)
            }
        }
    }

    /// XOR gate.
    pub fn xor_gate(&mut self, a: Wire, b: Wire) -> Wire {
        self.define(a.xor(b))
    }

    /// AND gate.
    pub fn and_gate(&mut self, a: Wire, b: Wire) -> Wire {
        self.define(a.and(b))
    }

    /// OR gate.
    pub fn or_gate(&mut self, a: Wire, b: Wire) -> Wire {
        self.define(a.or(b))
    }

    /// Full adder: returns `(sum, carry)` for inputs `a + b + c`.
    pub fn full_adder(&mut self, a: Wire, b: Wire, c: Wire) -> (Wire, Wire) {
        let ab = self.xor_gate(a.clone(), b.clone());
        let sum = self.xor_gate(ab.clone(), c.clone());
        // carry = (a∧b) ∨ (c∧(a⊕b))
        let and_ab = self.and_gate(a, b);
        let and_cab = self.and_gate(c, ab);
        let carry = self.or_gate(and_ab, and_cab);
        (sum, carry)
    }

    /// Ripple-carry addition of two little-endian binary numbers
    /// (shorter one zero-extended). Returns the sum, one bit longer
    /// than the wider input.
    pub fn add(&mut self, a: &[Wire], b: &[Wire]) -> Vec<Wire> {
        let width = a.len().max(b.len());
        let mut out = Vec::with_capacity(width + 1);
        let mut carry: Wire = Formula::False;
        for i in 0..width {
            let ai = a.get(i).cloned().unwrap_or(Formula::False);
            let bi = b.get(i).cloned().unwrap_or(Formula::False);
            let (s, c) = self.full_adder(ai, bi, carry);
            out.push(s);
            carry = c;
        }
        out.push(carry);
        out
    }

    /// Population count: the number of true wires among `bits`, as a
    /// little-endian binary number. Tree of ripple-carry adders —
    /// `O(n log n)` gates.
    pub fn popcount(&mut self, bits: &[Wire]) -> Vec<Wire> {
        match bits.len() {
            0 => vec![Formula::False],
            1 => vec![bits[0].clone()],
            n => {
                let (lo, hi) = bits.split_at(n / 2);
                let a = self.popcount(lo);
                let b = self.popcount(hi);
                self.add(&a, &b)
            }
        }
    }

    /// The Hamming-distance bits between two equal-length letter
    /// vectors: wire `i` is `xᵢ ≢ yᵢ`.
    pub fn diff_bits(&mut self, xs: &[Var], ys: &[Var]) -> Vec<Wire> {
        assert_eq!(xs.len(), ys.len(), "vector length mismatch");
        xs.iter()
            .zip(ys)
            .map(|(&x, &y)| self.xor_gate(Formula::var(x), Formula::var(y)))
            .collect()
    }

    /// Condition "little-endian number `bits` equals the constant `k`".
    /// No gate letters needed: a conjunction of literals.
    pub fn equals_const(&self, bits: &[Wire], k: u64) -> Formula {
        if bits.len() < 64 && k >= (1u64 << bits.len()) {
            return Formula::False;
        }
        Formula::and_all(bits.iter().enumerate().map(|(i, b)| {
            if k >> i & 1 == 1 {
                b.clone()
            } else {
                b.clone().not()
            }
        }))
    }

    /// Condition "number `a` is strictly less than number `b`"
    /// (little-endian, zero-extended). Direct `O(w²)` formula over the
    /// sum wires; no extra gates.
    pub fn less_than(&self, a: &[Wire], b: &[Wire]) -> Formula {
        let width = a.len().max(b.len());
        let bit = |v: &[Wire], i: usize| v.get(i).cloned().unwrap_or(Formula::False);
        // lt = ∨ⱼ ( ¬aⱼ ∧ bⱼ ∧ ⋀_{j'>j} (aⱼ' ≡ bⱼ') )
        Formula::or_all((0..width).map(|j| {
            let here = bit(a, j).not().and(bit(b, j));
            let above = Formula::and_all((j + 1..width).map(|j2| bit(a, j2).iff(bit(b, j2))));
            here.and(above)
        }))
    }

    /// Condition "number `bits` is at most the constant `k`".
    pub fn at_most_const(&self, bits: &[Wire], k: u64) -> Formula {
        // bits ≤ k  ⟺  ¬(k < bits): for each position j where k has a
        // 0, if bits[j] is 1 then some higher position must make
        // bits < k there — direct expansion:
        // bits ≤ k ⟺ ∨ over prefixes... simplest correct form:
        // bits ≤ k ⟺ ⋀ⱼ:kⱼ=0 ( bitsⱼ → ∨_{j'>j, kⱼ'=1} ¬bitsⱼ' ... )
        // To stay obviously correct we use: bits < k+1 via less_than
        // against the constant's wires.
        let width = bits.len().max(65 - (k + 1).leading_zeros() as usize);
        let kplus = k + 1;
        let const_wires: Vec<Wire> = (0..width)
            .map(|i| {
                if kplus >> i & 1 == 1 {
                    Formula::True
                } else {
                    Formula::False
                }
            })
            .collect();
        self.less_than(bits, &const_wires)
    }

    /// The gate letters introduced so far (the paper's `W`).
    pub fn aux_vars(&self) -> &[Var] {
        &self.aux
    }

    /// Close the circuit: the conjunction of every gate definition and
    /// the output condition.
    pub fn finish(self, output: Formula) -> Formula {
        let defs = self.aux.into_iter().zip(self.gates);
        Formula::and_all(defs.map(|(w, g)| Formula::var(w).iff(g)).chain([output]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_circuit_mask;
    use revkb_logic::{Alphabet, CountingSupply};

    #[test]
    fn popcount_equals_const() {
        let inputs: Vec<Var> = (0..5).map(Var).collect();
        for k in 0..=5u64 {
            let mut supply = CountingSupply::new(100);
            let mut cb = CircuitBuilder::new(&mut supply);
            let wires: Vec<Wire> = inputs.iter().map(|&v| Formula::var(v)).collect();
            let sum = cb.popcount(&wires);
            let out = cb.equals_const(&sum, k);
            let f = cb.finish(out);
            for m in 0..32u64 {
                assert_eq!(
                    evaluate_circuit_mask(&f, &inputs, m),
                    m.count_ones() as u64 == k,
                    "popcount({m:b}) == {k}"
                );
            }
        }
    }

    #[test]
    fn unique_gate_extension() {
        // Every input assignment must extend to exactly one model of
        // the gate definitions — brute force over a small circuit.
        let inputs: Vec<Var> = (0..2).map(Var).collect();
        let mut supply = CountingSupply::new(100);
        let mut cb = CircuitBuilder::new(&mut supply);
        let wires: Vec<Wire> = inputs.iter().map(|&v| Formula::var(v)).collect();
        let _sum = cb.popcount(&wires);
        // Tautological output: keep only gate definitions.
        let f = cb.finish(Formula::True);
        let full = Alphabet::of_formula(&f);
        assert!(full.len() <= 12, "circuit unexpectedly large");
        let input_alpha = Alphabet::new(inputs.clone());
        let mut proj_counts = std::collections::HashMap::new();
        for m in full.models(&f) {
            *proj_counts
                .entry(full.project_mask(m, &input_alpha))
                .or_insert(0u32) += 1;
        }
        assert_eq!(proj_counts.len(), 4);
        assert!(proj_counts.values().all(|&c| c == 1));
    }

    #[test]
    fn adder_adds() {
        // 2-bit + 2-bit adder, all 16 input combinations.
        let a_vars: Vec<Var> = (0..2).map(Var).collect();
        let b_vars: Vec<Var> = (2..4).map(Var).collect();
        let inputs: Vec<Var> = a_vars.iter().chain(&b_vars).copied().collect();
        let a: Vec<Wire> = a_vars.iter().map(|&v| Formula::var(v)).collect();
        let b: Vec<Wire> = b_vars.iter().map(|&v| Formula::var(v)).collect();
        for target in 0..=6u64 {
            let mut supply = CountingSupply::new(100);
            let mut cb = CircuitBuilder::new(&mut supply);
            let sum = cb.add(&a, &b);
            assert_eq!(sum.len(), 3);
            let out = cb.equals_const(&sum, target);
            let f = cb.finish(out);
            for m in 0..16u64 {
                assert_eq!(
                    evaluate_circuit_mask(&f, &inputs, m),
                    (m & 3) + (m >> 2 & 3) == target,
                    "a+b == {target} at {m:b}"
                );
            }
        }
    }

    #[test]
    fn less_than_comparator() {
        let a_vars: Vec<Var> = (0..2).map(Var).collect();
        let b_vars: Vec<Var> = (2..4).map(Var).collect();
        let mut supply = CountingSupply::new(100);
        let cb = CircuitBuilder::new(&mut supply);
        let a: Vec<Wire> = a_vars.iter().map(|&v| Formula::var(v)).collect();
        let b: Vec<Wire> = b_vars.iter().map(|&v| Formula::var(v)).collect();
        let lt = cb.less_than(&a, &b);
        let alpha = Alphabet::new(a_vars.iter().chain(&b_vars).copied().collect());
        for m in 0..16u64 {
            let av = m & 3;
            let bv = m >> 2 & 3;
            assert_eq!(alpha.eval_mask(&lt, m), av < bv, "{av} < {bv}");
        }
    }

    #[test]
    fn at_most_const_correct() {
        let vars: Vec<Var> = (0..3).map(Var).collect();
        let mut supply = CountingSupply::new(100);
        let cb = CircuitBuilder::new(&mut supply);
        let wires: Vec<Wire> = vars.iter().map(|&v| Formula::var(v)).collect();
        for k in 0..=8u64 {
            let f = cb.at_most_const(&wires, k);
            let alpha = Alphabet::new(vars.clone());
            for m in 0..8u64 {
                assert_eq!(alpha.eval_mask(&f, m), m <= k, "{m} <= {k}");
            }
        }
    }

    #[test]
    fn equals_const_out_of_range() {
        let mut supply = CountingSupply::new(0);
        let cb = CircuitBuilder::<CountingSupply>::new(&mut supply);
        let bits = vec![Formula::True, Formula::False];
        assert_eq!(cb.equals_const(&bits, 9), Formula::False);
    }
}
