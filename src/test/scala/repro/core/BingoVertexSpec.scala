package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import org.scalactic.Tolerance
import scala.util.Random
import repro.StatCheck
import repro.core.Vertices.{expectedProbabilityOf, structProbabilityOf, totalMass}

/** Core unit tests of the radix-factorized per-vertex sampler (paper §4–5). */
class BingoVertexSpec extends AnyFunSuite with Tolerance {

  /** Theorem 4.1 as an executable check: the probability derived from the
    * live structures (group prefix sums + group membership) equals w/Σw exactly,
    * and the structure invariants hold.
    */
  private def checkTheorem41(v: BingoVertex): Unit = {
    v.validate()
    val dsts = (0 until v.degree).map(v.dstAt).distinct
    var total = 0.0
    dsts.foreach { d =>
      val structural = structProbabilityOf(v, d)
      val expected = expectedProbabilityOf(v, d)
      StatCheck.assertProbEqual(structural, expected, 1e-9)
      total += structural
    }
    if (v.degree > 0) assert(total === 1.0 +- 1e-9)
  }

  // ---------------- paper running example (Fig. 4) ----------------

  test("running example: groups of vertex 2 are 2^0={5,3}, 2^1={3}, 2^2={5,4}") {
    val v = Vertices.build(Seq((1, 5.0), (4, 4.0), (5, 3.0)))
    assert(v.activeGroupBits == Seq(0, 1, 2))
    assert(v.groupCountOf(0) == 2) // biases 5 and 3 have bit 0
    assert(v.groupCountOf(1) == 1) // bias 3 has bit 1
    assert(v.groupCountOf(2) == 2) // biases 5 and 4 have bit 2
    checkTheorem41(v)
    assert(expectedProbabilityOf(v, 1) === 5.0 / 12 +- 1e-12)
    assert(expectedProbabilityOf(v, 4) === 4.0 / 12 +- 1e-12)
    assert(expectedProbabilityOf(v, 5) === 3.0 / 12 +- 1e-12)
  }

  test("running example: empirical sampling matches biases") {
    val v = Vertices.build(Seq((1, 5.0), (4, 4.0), (5, 3.0)))
    val exp = Map(1 -> 5.0 / 12, 4 -> 4.0 / 12, 5 -> 3.0 / 12)
    StatCheck.assertMatches(exp, 200000, seed = 31, tol = 0.01)(v.sample)
  }

  test("running example insertion (Fig. 5): edge (2,3,3) joins groups 2^0 and 2^1") {
    val v = Vertices.build(Seq((1, 5.0), (4, 4.0), (5, 3.0)))
    v.insert(3, 3.0)
    assert(v.groupCountOf(0) == 3)
    assert(v.groupCountOf(1) == 2)
    assert(v.groupCountOf(2) == 2)
    checkTheorem41(v)
    assert(expectedProbabilityOf(v, 3) === 3.0 / 15 +- 1e-12)
  }

  test("running example deletion (Fig. 6): removing (2,1,5) updates groups 2^0 and 2^2") {
    val v = Vertices.build(Seq((1, 5.0), (4, 4.0), (5, 3.0)))
    assert(v.delete(1))
    assert(v.degree == 2)
    assert(v.groupCountOf(0) == 1)
    assert(v.groupCountOf(1) == 1)
    assert(v.groupCountOf(2) == 1)
    assert(!v.contains(1))
    checkTheorem41(v)
    assert(expectedProbabilityOf(v, 4) === 4.0 / 7 +- 1e-12)
    assert(expectedProbabilityOf(v, 5) === 3.0 / 7 +- 1e-12)
  }

  // ---------------- streaming edge cases ----------------

  test("empty vertex samples -1") {
    val v = new BingoVertex()
    assert(v.sample(new SplittableRandom(1)) == -1)
    assert(v.degree == 0)
  }

  test("delete of absent neighbor returns false") {
    val v = Vertices.build(Seq((1, 2.0)))
    assert(!v.delete(99))
    assert(v.delete(1))
    assert(!v.delete(1))
    assert(v.degree == 0)
    assert(v.sample(new SplittableRandom(1)) == -1)
  }

  test("delete last remaining neighbor empties all groups") {
    val v = Vertices.build(Seq((7, 13.0)))
    assert(v.delete(7))
    assert(v.activeGroupBits.isEmpty)
    assert(totalMass(v) === 0.0 +- 1e-12)
  }

  test("duplicate edges: both instances carry mass; deletes remove earliest first") {
    val v = new BingoVertex()
    v.insert(5, 3.0)
    v.insert(5, 8.0)
    assert(v.degree == 2)
    assert(expectedProbabilityOf(v, 5) === 1.0 +- 1e-12)
    checkTheorem41(v)
    // earliest (bias 3) goes first
    assert(v.delete(5))
    assert(v.degree == 1)
    assert(v.scaledIntBiasAt(0) == 8L)
    assert(v.delete(5))
    assert(v.degree == 0)
  }

  test("interleaved duplicate inserts and deletes keep timestamp order") {
    val v = new BingoVertex()
    v.insert(1, 1.0); v.insert(2, 2.0); v.insert(1, 4.0); v.insert(1, 8.0)
    v.delete(1) // removes bias-1 instance
    checkTheorem41(v)
    assert(expectedProbabilityOf(v, 1) === 12.0 / 14 +- 1e-12)
    v.delete(1) // removes bias-4 instance
    checkTheorem41(v)
    assert(expectedProbabilityOf(v, 1) === 8.0 / 10 +- 1e-12)
  }

  test("power-of-two bias occupies exactly one group") {
    val v = Vertices.build(Seq((1, 16.0)))
    assert(v.activeGroupBits == Seq(4))
    assert(v.groupCountOf(4) == 1)
    assert(v.groupTypeOf(4).contains(GroupType.OneElement))
  }

  test("large biases use high radix groups") {
    val v = Vertices.build(Seq((1, math.pow(2, 40)), (2, 3.0)))
    assert(v.activeGroupBits.contains(40))
    checkTheorem41(v)
    assert(expectedProbabilityOf(v, 1) > 0.999999)
  }

  test("streaming inserts grow capacity and keep regular inverted indexes valid") {
    val v = new BingoVertex(adaptive = false) // all-regular exercises the d-sized inverted index
    val rnd = new Random(55)
    (0 until 200).foreach(i => v.insert(i, (1 + rnd.nextInt(63)).toDouble))
    checkTheorem41(v)
    (0 until 100).foreach(i => assert(v.delete(i * 2)))
    checkTheorem41(v)
    assert(v.degree == 100)
  }

  test("Regular inverses: 16-bit up to 65,536 slots, widened to 32-bit when the capacity passes it") {
    val v = new BingoVertex(adaptive = false) // every group Regular, one holding every slot
    val rnd = new Random(65)
    val d = 1 << 16
    val biases = Array.fill(d + 1)((1 + 2 * rnd.nextInt(512)).toDouble) // odd: group 0 holds all of them
    def exact(): Unit = {
      v.validate() // also checks each inverse's width against the capacity
      val total = (0 until v.degree).map(s => biases(v.dstAt(s))).sum
      val dist = v.distribution
      (0 until v.degree).foreach { s =>
        val want = biases(v.dstAt(s)) / total
        assert(math.abs(dist(v.dstAt(s)) - want) <= 1e-9 * want, s"dst ${v.dstAt(s)}")
      }
    }
    v.applyBatch(Array.range(0, d), biases.take(d), Array.fill(d)(true), 0, d)
    assert(v.capacity == d && v.groupCountOf(0) == d)
    exact() // list positions up to 65,535 in a 16-bit inverse
    v.insert(d, biases(d))
    assert(v.capacity == 2 * d && v.groupCountOf(0) == d + 1)
    exact()
    assert(v.delete(0) && v.delete(d - 1)) // compaction moves read the widened positions
    exact()
  }

  // ---------------- adaptive classification (Eq. 9) ----------------

  test("classification: one-element beats dense on ties") {
    assert(GroupType.classify(1, 2, adaptive = true) == GroupType.OneElement)
  }

  test("classification thresholds") {
    assert(GroupType.classify(41, 100, adaptive = true) == GroupType.Dense)
    assert(GroupType.classify(40, 100, adaptive = true) == GroupType.Regular)
    assert(GroupType.classify(9, 100, adaptive = true) == GroupType.Sparse)
    assert(GroupType.classify(10, 100, adaptive = true) == GroupType.Regular)
    assert(GroupType.classify(1, 100, adaptive = true) == GroupType.OneElement)
  }

  test("classification: baseline mode is always regular") {
    assert(GroupType.classify(1, 100, adaptive = false) == GroupType.Regular)
    assert(GroupType.classify(90, 100, adaptive = false) == GroupType.Regular)
  }

  test("dense group: odd biases put >40% of neighbors in group 2^0") {
    // 10 neighbors, all odd biases -> bit 0 group has 100% of them
    val v = Vertices.build((0 until 10).map(i => (i, (2 * i + 1).toDouble)))
    assert(v.groupTypeOf(0).contains(GroupType.Dense))
    checkTheorem41(v)
    val exp = (0 until 10).map(i => i -> (2 * i + 1).toDouble / 100.0).toMap
    StatCheck.assertMatches(exp, 200000, seed = 32, tol = 0.012)(v.sample)
  }

  test("sparse group representation used for rare high bits") {
    // 50 neighbors with bias 1, two with bias 64+1
    val ns = (0 until 50).map(i => (i, 1.0)) ++ Seq((100, 65.0), (101, 65.0))
    val v = Vertices.build(ns)
    assert(v.groupTypeOf(6).contains(GroupType.Sparse), s"got ${v.groupTypeOf(6)}")
    checkTheorem41(v)
  }

  test("adaptive vs baseline: identical distributions, smaller memory") {
    val rnd = new Random(66)
    val ns = (0 until 300).map(i => (i, (1 + rnd.nextInt(1000)).toDouble))
    val va = Vertices.build(ns, adaptive = true)
    val vb = Vertices.build(ns, adaptive = false)
    checkTheorem41(va)
    checkTheorem41(vb)
    ns.foreach { case (d, _) =>
      StatCheck.assertProbEqual(structProbabilityOf(va, d), structProbabilityOf(vb, d), 1e-9)
    }
    assert(va.memoryBytes < vb.memoryBytes, s"${va.memoryBytes} !< ${vb.memoryBytes}")
  }

  test("group conversions are recorded") {
    val cs = new ConversionStats
    val v = new BingoVertex(conversions = cs)
    // grow a group from one element -> more members
    v.insert(1, 4.0)
    v.insert(2, 4.0) // group 2^2: one-element -> dense (2/2 membership)
    assert(cs.totalConversions >= 1L)
    assert(cs.totalTouches >= 1L)
    checkTheorem41(v)
  }

  test("conversion ratio percentages are bounded") {
    val cs = new ConversionStats
    val v = new BingoVertex(conversions = cs)
    val rnd = new Random(77)
    (0 until 300).foreach(i => v.insert(i, (1 + rnd.nextInt(255)).toDouble))
    (0 until 150).foreach(i => v.delete(i))
    // every conversion out of a type follows a touch of a group of that type
    GroupType.All.foreach { from =>
      GroupType.All.foreach(to => assert(cs.conversions(from, to) <= cs.touches(from), s"$from -> $to"))
    }
    checkTheorem41(v)
  }

  // ---------------- memory accounting ----------------

  test("memoryBytes grows with degree") {
    val small = Vertices.build((0 until 8).map(i => (i, (i + 1).toDouble)))
    val big = Vertices.build((0 until 256).map(i => (i, (i + 1).toDouble)))
    assert(big.memoryBytes > small.memoryBytes)
  }

  test("dense groups store nothing (memory saving of §5.1)") {
    // all neighbors odd bias: group 2^0 dense in adaptive mode
    val ns = (0 until 64).map(i => (i, (2 * i + 1).toDouble))
    val va = Vertices.build(ns, adaptive = true)
    val vb = Vertices.build(ns, adaptive = false)
    assert(va.memoryBytes < vb.memoryBytes)
  }

  // ---------------- per-config structural sweeps ----------------

  private val biasSets: Seq[(String, Seq[Double])] = Seq(
    "uniform-1" -> Seq.fill(20)(1.0),
    "arith" -> (1 to 25).map(_.toDouble),
    "powers" -> (0 until 12).map(i => math.pow(2, i)),
    "odd" -> (0 until 15).map(i => (2 * i + 1).toDouble),
    "skewed" -> (Seq(100000.0) ++ Seq.fill(30)(1.0)),
    "mersenne" -> (1 to 10).map(i => (math.pow(2, i) - 1)),
    "two-neighbors" -> Seq(7.0, 9.0),
    "single" -> Seq(1023.0),
  )

  for ((name, biases) <- biasSets; adaptive <- Seq(true, false)) {
    val tag = s"$name adaptive=$adaptive"
    test(s"build + Theorem 4.1 [$tag]") {
      val v = Vertices.build(biases.zipWithIndex.map { case (b, i) => (i, b) }, adaptive = adaptive)
      checkTheorem41(v)
    }
    test(s"delete half then re-insert preserves exactness [$tag]") {
      val ns = biases.zipWithIndex.map { case (b, i) => (i, b) }
      val v = Vertices.build(ns, adaptive = adaptive)
      ns.zipWithIndex.filter(_._2 % 2 == 0).foreach { case ((d, _), _) => assert(v.delete(d)) }
      checkTheorem41(v)
      ns.zipWithIndex.filter(_._2 % 2 == 0).foreach { case ((d, b), _) => v.insert(d, b) }
      checkTheorem41(v)
      assert(v.degree == ns.length)
    }
  }
}
