package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Tables

/** Reproduces paper Table 1: sampling/update complexity of Bingo vs the
  * three classic Monte Carlo samplers, as an empirical degree sweep.
  * Prints the measured table (recorded in EXPERIMENTS.md) and asserts the
  * paper's qualitative complexity claims via log-log scaling exponents.
  */
class Table1Bench extends AnyFunSuite {

  test("Table 1: complexity shape of Bingo vs Alias/ITS/Rejection") {
    // first sweep is discarded: it absorbs JIT compilation and inlining
    // decisions so the measured sweep reflects steady-state costs
    Tables.table1Rows(opCount = 500, sampleCount = 20000, warmup = false)
    val rows = Tables.table1Rows()
    val out = Tables.table1Format(rows)
    println(out)
    BenchOutput.write("table1.txt", out)

    def exp(method: String, f: Tables.Table1Row => Double): Double =
      Tables.scalingExponent(rows.filter(_.method == method).sortBy(_.degree).map(r => (r.degree, f(r))))

    // Bingo: O(K) updates and O(K) sampling (a prefix scan over the ≤ K
    // group weights, then an O(1) member draw; the paper's alias pick is
    // O(1)) — all near-flat in d, as K is fixed by the bias width
    assert(exp("Bingo", _.sampleNs) < 0.35, s"Bingo sampling should be ~O(1), got ${exp("Bingo", _.sampleNs)}")
    assert(exp("Bingo", _.insertNs) < 0.45, s"Bingo insertion should be ~O(K), got ${exp("Bingo", _.insertNs)}")
    assert(exp("Bingo", _.deleteNs) < 0.45, s"Bingo deletion should be ~O(K), got ${exp("Bingo", _.deleteNs)}")
    // Alias: O(d) insert/delete (full rebuild), O(1) sampling
    assert(exp("Alias Method", _.insertNs) > 0.6, s"alias insert should be ~O(d), got ${exp("Alias Method", _.insertNs)}")
    assert(exp("Alias Method", _.deleteNs) > 0.6, s"alias delete should be ~O(d), got ${exp("Alias Method", _.deleteNs)}")
    assert(exp("Alias Method", _.sampleNs) < 0.35, "alias sampling should be ~O(1)")
    // ITS: O(1) insert, O(d) delete, O(log d) sampling
    assert(exp("ITS", _.insertNs) < 0.35, "ITS insert should be ~O(1)")
    assert(exp("ITS", _.deleteNs) > 0.45, "ITS delete should be ~O(d)")
    assert(exp("ITS", _.sampleNs) < 0.5, "ITS sampling should be ~O(log d)")
    // Rejection: O(1) insert, O(d) delete
    assert(exp("Rejection", _.insertNs) < 0.35, "rejection insert should be ~O(1)")
    assert(exp("Rejection", _.deleteNs) > 0.45, "rejection delete should be ~O(d)")

    // memory: Bingo O(d·K) exceeds the O(d) samplers at the same degree
    val atMax = rows.filter(_.degree == rows.map(_.degree).max)
    val bingoMem = atMax.find(_.method == "Bingo").get.memBytes
    atMax.filterNot(_.method == "Bingo").foreach(r => assert(bingoMem > r.memBytes, r.method))

    // at every degree, absolute sampling cost: Bingo and Alias are both flat in d
    rows.filter(_.method == "Bingo").foreach(r => assert(r.sampleNs < 2000, s"d=${r.degree}: ${r.sampleNs}"))
  }
}
