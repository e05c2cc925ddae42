package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalactic.Tolerance
import scala.util.Random
import repro.StatCheck
import repro.core.Vertices.{expectedProbabilityOf, structProbabilityOf, totalMass}

/** Targeted tests for the batched two-phase delete-and-swap (paper §5.2,
  * Fig. 10b) and the floating-point bias mode (paper §4.3).
  */
class BingoBatchAndFloatSpec extends AnyFunSuite with Tolerance {

  // ---------------- two-phase delete-and-swap ----------------

  test("two-phase: deleting tail elements only (the Fig. 10b hazard)") {
    // all deleted entries sit in the tail window — fillers must not be doomed
    val v = Vertices.build((0 until 10).map(i => (i, 4.0))) // all in one group
    val dels = Seq(9, 8, 7) // the whole tail window is doomed
    Batch(v, Seq.empty, dels)
    v.validate()
    assert(v.degree == 7)
    (0 until 7).foreach(i => assert(v.contains(i)))
  }

  test("two-phase: mixed front and tail deletions") {
    val v = Vertices.build((0 until 10).map(i => (i, 4.0)))
    Batch(v, Seq.empty, Seq(0, 9, 1, 8)) // 2 front + 2 tail doomed
    v.validate()
    assert(v.degree == 6)
    Seq(0, 1, 8, 9).foreach(d => assert(!v.contains(d)))
    Seq(2, 3, 4, 5, 6, 7).foreach(d => assert(v.contains(d)))
  }

  test("two-phase: delete everything") {
    val v = Vertices.build((0 until 12).map(i => (i, (i + 1).toDouble)))
    Batch(v, Seq.empty, 0 until 12)
    v.validate()
    assert(v.degree == 0)
    assert(v.sample(new java.util.SplittableRandom(1)) == -1)
  }

  test("two-phase: delete all but one") {
    val v = Vertices.build((0 until 12).map(i => (i, 7.0)))
    Batch(v, Seq.empty, 1 until 12)
    v.validate()
    assert(v.degree == 1)
    assert(v.contains(0))
    assert(expectedProbabilityOf(v, 0) === 1.0 +- 1e-12)
  }

  test("batch insert of previously deleted edge in same batch (timestamp rule)") {
    val v = Vertices.build(Seq((1, 3.0), (2, 5.0)))
    // delete existing (1) and re-insert it with a new bias in the same batch:
    // the insert lands first (paper order), the delete then removes the
    // *earlier* instance, leaving the new one.
    Batch(v, Seq((1, 9.0)), Seq(1))
    v.validate()
    assert(v.degree == 2)
    assert(expectedProbabilityOf(v, 1) === 9.0 / 14 +- 1e-12)
  }

  test("applyBatch reads only its column range and applies the range's inserts before its deletes") {
    val v = Vertices.build(Seq((2, 1.0)))
    // the range [1, 3) lists the delete of (1) before the insert of (1): the
    // insert lands first, so the delete finds it; the entries outside the
    // range (deletes of 2) are not read
    val applied = v.applyBatch(Array(2, 1, 1, 2), Array(0.0, 0.0, 5.0, 0.0), Array(false, false, true, false), 1, 3)
    assert(applied == 1)
    v.validate()
    assert(v.degree == 1 && !v.contains(1) && v.contains(2))
  }

  test("batch deletes of absent edges are counted but harmless") {
    val v = Vertices.build(Seq((1, 3.0)))
    val applied = Batch(v, Seq.empty, Seq(42, 1, 42))
    assert(applied == 1)
    v.validate()
    assert(v.degree == 0)
  }

  test("a batch deleting one dst more times than it has instances applies only those") {
    // 6 slots are scanned for a dst; 46 keep a dst index
    for (others <- Seq(3, 43)) {
      val v = Vertices.build(Seq((5, 3.0), (5, 4.0)) ++ (0 until others).map(i => (100 + i, 1.0)))
      assert(v.indexed == (others > SlotStore.MaxScan), s"$others others")
      val applied = Batch(v, Seq((5, 6.0)), Seq.fill(5)(5))
      assert(applied == 3, s"$others others")
      v.validate()
      assert(v.degree == others && !v.contains(5), s"$others others")
      assert(v.distribution.keySet == (0 until others).map(100 + _).toSet)
    }
  }

  test("a warm batch that grows no column and converts no group allocates nothing") {
    val cs = new ConversionStats
    val v = new BingoVertex(conversions = cs)
    // 40 slots, so the dst index is kept: group 0 Dense (40 of 40), group 2 Regular (10), group 6 Sparse (2)
    Batch(v, (0 until 40).map(i => (i, 1.0 + (if (i < 10) 4 else 0) + (if (i < 2) 64 else 0))), Nil)
    // each batch swaps a member of all three groups for a dst of the same bias: insert one, delete the other
    val dsts = Array(Array(40, 0), Array(0, 40))
    val bias = Array(69.0, 0.0)
    val insert = Array(true, false)
    def swaps(n: Int): Int = { // deletes applied
      var applied = 0
      var i = 0
      while (i < n) { applied += v.applyBatch(dsts(i & 1), bias, insert, 0, 2); i += 1 }
      applied
    }
    assert(swaps(50000) == 50000) // JIT-compiled
    val mx = java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val (touched, converted) = (GroupType.All.map(cs.touches), cs.totalConversions)
    val calibration = -mx.getCurrentThreadAllocatedBytes + mx.getCurrentThreadAllocatedBytes
    val before = mx.getCurrentThreadAllocatedBytes
    val applied = swaps(1000)
    val allocated = mx.getCurrentThreadAllocatedBytes - before - calibration
    assert(allocated == 0L, s"$allocated B over 1,000 batches")
    assert(applied == 1000)
    v.validate()
    assert(GroupType.All.map(t => v.activeGroupBits.map(v.groupTypeOf(_).get).count(_ == t)) == Seq(1, 1, 1, 0))
    assert(cs.totalConversions == converted)
    // every batch touches each of the three groups twice, tallied exactly
    assert(GroupType.All.map(cs.touches).zip(touched).map { case (a, b) => a - b } == Seq(2000L, 2000L, 2000L, 0L))
  }

  test("pure-insert batch equals incremental inserts") {
    val rnd = new Random(123)
    val ns = (0 until 100).map(i => (i, (1 + rnd.nextInt(300)).toDouble))
    val vb = new BingoVertex(); Batch(vb, ns, Seq.empty)
    val vs = new BingoVertex(); ns.foreach { case (d, b) => vs.insert(d, b) }
    vb.validate(); vs.validate()
    ns.foreach { case (d, _) =>
      StatCheck.assertProbEqual(structProbabilityOf(vb, d), structProbabilityOf(vs, d), 1e-9)
    }
  }

  for (seed <- 0 until 8) {
    test(s"two-phase stress: random batch deletions seed=$seed") {
      val rnd = new Random(600 + seed)
      val n = 40 + rnd.nextInt(60)
      val ns = (0 until n).map(i => (i, (1 + rnd.nextInt(1023)).toDouble))
      val v = Vertices.build(ns)
      val dels = rnd.shuffle((0 until n).toList).take(rnd.nextInt(n + 1))
      Batch(v, Seq.empty, dels)
      v.validate()
      assert(v.degree == n - dels.size)
      val tot = ns.filterNot(x => dels.contains(x._1)).map(_._2).sum
      ns.filterNot(x => dels.contains(x._1)).foreach { case (d, b) =>
        StatCheck.assertProbEqual(structProbabilityOf(v, d), b / tot, 1e-9)
      }
    }
  }

  /** `validate`, Eq. 7 against Eq. 2 at every dst, and drawn frequencies. */
  private def assertExact(v: BingoVertex, seed: Long): Unit = {
    v.validate()
    val dsts = (0 until v.degree).map(v.dstAt).distinct
    dsts.foreach(x => StatCheck.assertProbEqual(structProbabilityOf(v, x), expectedProbabilityOf(v, x), 1e-9))
    if (dsts.nonEmpty)
      StatCheck.assertMatches(dsts.map(x => x -> expectedProbabilityOf(v, x)).toMap, 200000, seed, tol = 0.02)(v.sample)
  }

  for (lambda <- Seq(1.0, 10.0); seed <- 0 until 8) {
    test(s"two-phase stress: random batch deletions with decimals λ=$lambda seed=$seed") {
      val rnd = new Random(700 + seed)
      val n = 40 + rnd.nextInt(60)
      // every bias has a decimal part, and about half are below 1: at λ = 1
      // those slots sit in the decimal group only
      val ns = (0 until n).map(i => (i, rnd.nextInt(2) * (1 + rnd.nextInt(15)) + 0.001 + rnd.nextDouble()))
      val v = new BingoVertex()
      Batch(v, ns.map { case (d, b) => (d, b * lambda) }, Seq.empty)
      val decimals = v.groupCountOf(BingoVertex.DecimalGroup)
      val dels = rnd.shuffle((0 until n).toList).take(rnd.nextInt(n + 1))
      Batch(v, Seq.empty, dels)
      assertExact(v, seed)
      assert(v.degree == n - dels.size)
      assert(decimals == n && v.groupCountOf(BingoVertex.DecimalGroup) == n - dels.size)
      val live = ns.filterNot(x => dels.contains(x._1))
      val tot = live.map(_._2 * lambda).sum
      live.foreach { case (d, b) => StatCheck.assertProbEqual(expectedProbabilityOf(v, d), b * lambda / tot, 1e-9) }
    }
  }

  test("a Dense decimal group: rejection on the slots, then on the decimal") {
    val rnd = new Random(81)
    // 12 of 20 slots carry a decimal (> 40%), some of them with no integer part
    val ns = (0 until 20).map(i => (i, if (i < 12) i % 3 + 0.05 + 0.9 * rnd.nextDouble() else (i + 1).toDouble))
    val v = Vertices.build(ns)
    assert(v.groupTypeOf(BingoVertex.DecimalGroup).contains(GroupType.Dense))
    assertExact(v, 82)
    // one batch deletes most decimal members: the group converts and stays exact
    Batch(v, Seq((20, 3.25)), Seq(0, 2, 3, 5, 7, 8, 9, 11))
    assert(v.groupCountOf(BingoVertex.DecimalGroup) == 5)
    assert(!v.groupTypeOf(BingoVertex.DecimalGroup).contains(GroupType.Dense))
    assertExact(v, 83)
  }

  test("a One-element decimal group, grown and emptied") {
    val v = Vertices.build((0 until 10).map(i => (i, (i + 1).toDouble)) :+ ((10, 2.75)))
    assert(v.groupTypeOf(BingoVertex.DecimalGroup).contains(GroupType.OneElement))
    assertExact(v, 84)
    v.insert(11, 0.4)
    assert(v.groupCountOf(BingoVertex.DecimalGroup) == 2)
    assertExact(v, 85)
    assert(v.delete(10) && v.delete(11))
    assert(v.groupTypeOf(BingoVertex.DecimalGroup).isEmpty)
    assertExact(v, 86)
  }

  test("a One-element group whose member is replaced in one batch is rebuilt on its new slot") {
    // slot 3 (bias 17) is group 4's one member; slots 0..10 fill a dense group 0
    val v = Vertices.build((0 until 11).map(i => (i, if (i == 3) 17.0 else 1.0)))
    assert(v.groupTypeOf(4).contains(GroupType.OneElement))
    // group 4 takes slot 11 and loses slot 3, which slot 12 (bias 1) fills
    assert(Batch(v, Seq((20, 16.0), (21, 1.0)), Seq(3)) == 1)
    assert(v.groupTypeOf(4).contains(GroupType.OneElement) && v.groupCountOf(4) == 1)
    assert((0 until v.degree).filter(s => (v.scaledIntBiasAt(s) & 16L) != 0L) == Seq(11) && v.dstAt(11) == 20)
    assert(v.dstAt(3) == 21)
    assertExact(v, 87) // validate: group 4's one entry is a member, slot 11
    assert(v.distribution(20) == 16.0 / totalMass(v))
  }

  test("a group born and emptied in one batch leaves no entry") {
    val v = Vertices.build((0 until 6).map(i => (i, (i % 3 + 1).toDouble)))
    // 64 and 32 give birth to groups 6 and 5; deleting 30 empties group 6 again
    assert(Batch(v, Seq((30, 64.0), (31, 32.0)), Seq(30)) == 1)
    assert(v.activeGroupBits == Seq(0, 1, 5) && v.groupTypeOf(6).isEmpty)
    assert(v.groupTypeOf(5).contains(GroupType.OneElement))
    assertExact(v, 88) // validate: the entries past the active groups are cleared
    assert(Batch(v, Nil, Seq(31)) == 1 && v.activeGroupBits == Seq(0, 1))
    assertExact(v, 89)
  }

  test("One-element groups moved by compaction, deleted and grown: Table 4 conversions and touches") {
    val cs = new ConversionStats
    val v = new BingoVertex(conversions = cs)
    // slots 0..11 hold bias 1 (a Dense group 0), slot 12 bias 17: group 4's one member
    Batch(v, (0 until 12).map(i => (i, 1.0)) :+ ((12, 17.0)), Nil)
    assert(v.groupTypeOf(4).contains(GroupType.OneElement))
    def counts(): (Seq[Long], Seq[Long]) = {
      val out = (GroupType.All.flatMap(f => GroupType.All.map(t => cs.conversions(f, t))), GroupType.All.map(cs.touches))
      cs.reset()
      out
    }
    def conv(pairs: (GroupType, GroupType)*): Seq[Long] =
      GroupType.All.flatMap(f => GroupType.All.map(t => pairs.count(_ == ((f, t))).toLong))
    def touched(dense: Long, regular: Long, sparse: Long, one: Long): Seq[Long] = Seq(dense, regular, sparse, one)
    counts()

    // moved: deleting slot 0 moves the tail slot 12, group 4's member, into it
    assert(Batch(v, Nil, Seq(0)) == 1)
    assert(v.dstAt(0) == 12 && v.groupTypeOf(4).contains(GroupType.OneElement))
    assertExact(v, 90)
    assert(counts() == (conv(), touched(1, 0, 0, 0)))

    // grown: two members join group 4 (3 of 14 slots: Regular), 48 gives birth to group 5
    Batch(v, Seq((20, 16.0), (21, 48.0)), Nil)
    assert(v.groupTypeOf(4).contains(GroupType.Regular) && v.groupCountOf(4) == 3)
    assert(v.groupTypeOf(5).contains(GroupType.OneElement))
    assertExact(v, 91) // a touch is tallied by the type the group had when the batch touched it
    assert(counts() == (conv(GroupType.OneElement -> GroupType.Regular), touched(0, 0, 0, 2)))

    // deleted: group 5 loses its one member and leaves no entry
    assert(Batch(v, Nil, Seq(21)) == 1)
    assert(v.groupTypeOf(5).isEmpty && v.groupCountOf(4) == 2)
    assertExact(v, 92)
    assert(counts() == (conv(), touched(0, 1, 0, 1)))

    // grown and shrunk in one batch: group 6 gains a member and loses the first one
    Batch(v, Seq((30, 64.0)), Nil)
    counts()
    assert(Batch(v, Seq((31, 64.0)), Seq(30)) == 1)
    assert(v.groupTypeOf(6).contains(GroupType.OneElement) && v.groupCountOf(6) == 1)
    assertExact(v, 93) // validate: group 6's entry names dst 31's slot
    assert(counts() == (conv(), touched(0, 0, 0, 2)))

    // grown by two and shrunk by one: 2 of 14 slots is a Regular group
    Batch(v, Seq((32, 64.0), (33, 64.0)), Seq(31))
    assert(v.groupTypeOf(6).contains(GroupType.Regular) && v.groupCountOf(6) == 2)
    assertExact(v, 94)
    assert(counts() == (conv(GroupType.OneElement -> GroupType.Regular), touched(0, 0, 0, 3)))

    // grown and emptied in one batch
    Batch(v, Seq((40, 128.0)), Nil)
    counts()
    assert(Batch(v, Seq((41, 128.0)), Seq(40, 41)) == 2)
    assert(v.groupTypeOf(7).isEmpty)
    assertExact(v, 95)
    assert(counts() == (conv(), touched(0, 0, 0, 3)))
  }

  // ---------------- floating-point biases (§4.3) ----------------

  test("paper Fig. 7: λ=10 on biases 0.554/0.726/0.320") {
    val v = new BingoVertex()
    v.insert(1, 0.554 * 10.0)
    v.insert(4, 0.726 * 10.0)
    v.insert(5, 0.320 * 10.0)
    v.validate()
    // integer parts 5, 7, 3 -> groups 2^0 {5.54->1? no:} — int parts 5(101b),7(111b),3(011b)
    assert(v.groupCountOf(0) == 3) // 5,7,3 all odd
    assert(v.groupCountOf(1) == 2) // 7 and 3
    assert(v.groupCountOf(2) == 2) // 5 and 7
    assert(v.groupCountOf(BingoVertex.DecimalGroup) == 3) // decimals .54, .26, .20
    val tot = 5.54 + 7.26 + 3.20
    assert(expectedProbabilityOf(v, 1) === 5.54 / tot +- 1e-9)
    assert(structProbabilityOf(v, 1) === 5.54 / tot +- 1e-9)
    assert(structProbabilityOf(v, 4) === 7.26 / tot +- 1e-9)
    assert(structProbabilityOf(v, 5) === 3.20 / tot +- 1e-9)
  }

  test("float sampling distribution matches scaled biases") {
    val v = new BingoVertex()
    v.insert(1, 0.554 * 10.0); v.insert(4, 0.726 * 10.0); v.insert(5, 0.320 * 10.0)
    val tot = 5.54 + 7.26 + 3.20
    val exp = Map(1 -> 5.54 / tot, 4 -> 7.26 / tot, 5 -> 3.20 / tot)
    StatCheck.assertMatches(exp, 200000, seed = 41, tol = 0.01)(v.sample)
  }

  test("float: deleting a decimal-group member keeps decSum consistent") {
    val v = new BingoVertex()
    v.insert(1, 0.554 * 10.0); v.insert(4, 0.726 * 10.0); v.insert(5, 0.320 * 10.0)
    assert(v.delete(4))
    v.validate()
    val tot = 5.54 + 3.20
    assert(structProbabilityOf(v, 1) === 5.54 / tot +- 1e-9)
    assert(v.groupCountOf(BingoVertex.DecimalGroup) == 2)
  }

  test("float: batch updates with decimals") {
    val rnd = new Random(321)
    val v = new BingoVertex()
    val ns = (0 until 60).map(i => (i, rnd.nextDouble() * 5 + 0.01))
    Batch(v, ns.map { case (d, b) => (d, b * 100.0) }, Seq.empty)
    v.validate()
    val dels = rnd.shuffle((0 until 60).toList).take(25)
    Batch(v, (100 until 110).map(i => (i, (rnd.nextDouble() * 5 + 0.01) * 100.0)), dels)
    v.validate()
    val liveNs = ns.filterNot(x => dels.contains(x._1))
    assert(v.degree == liveNs.size + 10)
  }

  test("float: integer-valued doubles with λ=1 have empty decimal group") {
    val v = new BingoVertex()
    v.insert(1, 5.0); v.insert(2, 4.0)
    assert(v.groupCountOf(BingoVertex.DecimalGroup) == 0)
    v.validate()
  }

  test("float: λ chosen by chooseLambda keeps decimal group mass < 1/d") {
    val rnd = new Random(55)
    val biases = Array.fill(40)(rnd.nextDouble() * 2 + 0.05)
    val lambda = LambdaRule.chooseLambda(biases)
    val v = new BingoVertex()
    biases.zipWithIndex.foreach { case (b, i) => v.insert(i, b * lambda) }
    v.validate()
    // decimal group weight / total mass < 1/d  =>  O(1) expected sampling
    val decMass = (0 until v.degree).map(v.decimalAt).sum
    assert(decMass / totalMass(v) < 1.0 / v.degree)
    // distribution still exact
    val tot = biases.map(_ * lambda).sum
    biases.zipWithIndex.foreach { case (b, i) =>
      StatCheck.assertProbEqual(structProbabilityOf(v, i), b * lambda / tot, 1e-9)
    }
  }

  test("biases whose λ-scaled integer part overflows a Long are rejected") {
    val v = Vertices.build(Seq((1, 3.0), (2, 5.0)))
    intercept[IllegalArgumentException](v.insert(3, 1e19))
    intercept[IllegalArgumentException](v.insert(3, Double.PositiveInfinity))
    intercept[IllegalArgumentException](new BingoVertex().insert(3, 1e18 * 10.0))
    v.validate()
    assert(v.degree == 2 && !v.contains(3))
    assert(structProbabilityOf(v, 2) === 5.0 / 8 +- 1e-12)
    // a bias with bit 62 set is still accepted and exact
    v.insert(4, math.pow(2, 62))
    v.validate()
    assert(structProbabilityOf(v, 4) === math.pow(2, 62) / (math.pow(2, 62) + 8) +- 1e-12)
  }

  test("insert accepts the bias range's ends, exact to w/Σw") {
    val below63 = math.nextDown(math.pow(2, 63))
    // (bias, its integer word, its decimal): the first two sit in decimal group 63 only
    val cases = Seq((Double.MinPositiveValue, 0L, Double.MinPositiveValue), (0.5, 0L, 0.5),
      (math.pow(2, 62), 1L << 62, 0.0), (below63, below63.toLong, 0.0))
    for ((w, word, dec) <- cases) {
      // beside a 1.0, and alone
      for ((v, biases) <- Seq(Vertices.build(Seq(1 -> 1.0)) -> Map(1 -> 1.0, 2 -> w), new BingoVertex -> Map(2 -> w))) {
        v.insert(2, w)
        v.validate()
        val slot = v.degree - 1
        assert(v.dstAt(slot) == 2 && v.scaledIntBiasAt(slot) == word && v.decimalAt(slot) == dec, s"w=$w")
        assert(v.activeGroupBits.contains(BingoVertex.DecimalGroup) == (dec > 0.0), s"w=$w")
        val dist = v.distribution
        assert(dist.keySet == biases.keySet, s"w=$w: $dist")
        biases.foreach { case (d, b) => assert(math.abs(dist(d) - b / biases.values.sum) <= 1e-12, s"w=$w: $dist") }
      }
    }
  }

  test("subnormal decimals are drawn at their exact shares") {
    // 4.9e-324 and 1.5e-323: decimal group 63 only, exact shares 1/4 and 3/4
    val v = Vertices.build(Seq(1 -> Double.MinPositiveValue, 2 -> 3 * Double.MinPositiveValue))
    assert(v.distribution == Map(1 -> 0.25, 2 -> 0.75))
    StatCheck.assertMatches(Map(1 -> 0.25, 2 -> 0.75), 400000, seed = 90, tol = 0.01)(v.sample)
  }

  test("all 64 groups active: the group pick scans them all, the decimal group last") {
    // 2^k fills radix group k for k = 0..62; 3.5 adds groups 0, 1 and decimal group 63
    val v = Vertices.build((0 to 62).map(k => (k, math.pow(2, k))) :+ (63 -> 3.5))
    v.validate()
    assert(v.activeGroupBits == (0 to BingoVertex.DecimalGroup))
    val dist = v.distribution
    assert(dist.keySet == (0 to 63).toSet)
    dist.foreach { case (dst, p) => StatCheck.assertProbEqual(p, expectedProbabilityOf(v, dst), 1e-12) }
    val rng = new java.util.SplittableRandom(64)
    (1 to 100000).foreach(_ => assert(v.sample(rng) >= 0))
  }

  test("float vs integer: λ-scaled integer biases equal pure integer mode") {
    val ws = Seq(5.0, 4.0, 3.0)
    val vi = Vertices.build(ws.zipWithIndex.map { case (b, i) => (i, b) })
    val vf = new BingoVertex() // λ·w stays integral
    ws.zipWithIndex.foreach { case (b, i) => vf.insert(i, b * 4.0) }
    ws.indices.foreach { i =>
      StatCheck.assertProbEqual(structProbabilityOf(vi, i), structProbabilityOf(vf, i), 1e-9)
    }
  }
}
