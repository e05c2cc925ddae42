package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The two-phase parallel delete-and-swap of paper Fig. 10b
  * ([[SlotStore.twoPhaseCompact]]) on plain arrays whose entries start out
  * equal to their positions, and the slot store's primitive dst index
  * against a reference model.
  */
class SlotStoreSpec extends AnyFunSuite {

  /** Compact `doomed` out of positions `0 until len` and check the new
    * length, the survivors, and every move; returns the moves made.
    */
  private def compact(len: Int, doomed: Seq[Int], spare: Int = 0): Seq[(Int, Int)] = {
    val arr = Array.tabulate(len)(identity)
    val dead = doomed.toSet
    val n = doomed.length
    val tailStart = len - n
    val moves = ArrayBuffer[(Int, Int)]()
    // entries past n must be ignored
    val newLen = SlotStore.twoPhaseCompact(doomed.toArray ++ Array.fill(spare)(-1), n, len) { (from, to) =>
      assert(from >= tailStart && from < len && !dead(from), s"move reads $from, not a surviving tail entry")
      assert(to < tailStart && dead(to), s"move writes $to, not a doomed front position")
      arr(to) = arr(from)
      moves += ((from, to))
    }
    assert(newLen == len - n)
    assert(arr.take(newLen).sorted.toSeq == (0 until len).filterNot(dead), s"len=$len doomed=$doomed")
    moves.toSeq
  }

  test("two-phase compact: n = 0 moves nothing") {
    Seq(0, 1, 7).foreach(len => assert(compact(len, Nil).isEmpty))
  }

  test("two-phase compact: n = 1 is the streaming delete-and-swap") {
    (1 to 9).foreach { len =>
      (0 until len).foreach { p =>
        val moves = compact(len, Seq(p))
        assert(moves == (if (p == len - 1) Nil else Seq((len - 1, p))))
      }
    }
  }

  test("two-phase compact: n = len empties the array") {
    Seq(1, 2, 13).foreach(len => assert(compact(len, Random.shuffle((0 until len).toList)).isEmpty))
  }

  test("two-phase compact: every doomed entry in the tail (the Fig. 10b hazard)") {
    assert(compact(10, Seq(9, 7, 8)).isEmpty)
    assert(compact(10, Seq(8, 0, 9)) == Seq((7, 0)))
  }

  test("two-phase compact: seeded random doomed sets") {
    val rnd = new Random(1010)
    (0 until 500).foreach { _ =>
      val len = rnd.nextInt(65)
      val n = if (len == 0) 0 else rnd.nextInt(len + 1)
      compact(len, rnd.shuffle((0 until len).toList).take(n), spare = rnd.nextInt(3))
    }
  }

  /** A slot store with one `tag` column (a distinct tag per inserted
    * instance): the tests' handle on the store's protected API.
    */
  private final class TaggedStore extends SlotStore(1) {
    var tag = new Array[Int](1)

    /** Append `(dst, tag)` pairs, with room for all of them made first if `presize`. */
    def insertBatch(ins: Seq[(Int, Int)], presize: Boolean): Unit = {
      if (presize) reserve(ins.size)
      ins.foreach { case (dst, t) => val slot = appendSlot(dst); tag(slot) = t }
    }

    /** Delete the earliest instance of each of `dsts` (in order) with one
      * two-phase compaction; returns the removed tags, -1 for an absent dst.
      */
    def deleteBatch(dsts: Seq[Int]): Seq[Int] = {
      val freed = new Array[Int](dsts.size)
      var n = 0
      val removed = dsts.map { x =>
        val slot = takeEarliest(x)
        if (slot < 0) -1 else { freed(n) = slot; n += 1; tag(slot) }
      }
      compactSlots(freed, n)
      removed
    }

    /** Tags of `dst`'s instances, earliest first, read through the index. */
    def tagsOf(dst: Int): Seq[Int] =
      Iterator.iterate(firstSlotOf(dst))(nextSlotOf).takeWhile(_ >= 0).map(tag(_)).toSeq

    def validate(): Unit = validateSlots()

    protected def growColumns(cap: Int): Unit = tag = java.util.Arrays.copyOf(tag, cap)
    protected def moveSlot(from: Int, to: Int): Unit = tag(to) = tag(from)
  }

  private type Model = Map[Int, Vector[Int]] // dst → tags of its live instances, earliest first

  /** The store agrees with `model` on every dst of `universe`, and its index is sound. */
  private def assertMatches(s: TaggedStore, model: Model, universe: Seq[Int], ctx: String): Unit = {
    s.validate()
    assert(s.degree == model.valuesIterator.map(_.size).sum, ctx)
    universe.foreach { x =>
      val want = model.getOrElse(x, Vector.empty)
      assert(s.contains(x) == want.nonEmpty, s"$ctx: contains($x)")
      assert(s.tagsOf(x) == want, s"$ctx: instances of $x")
    }
    (0 until s.degree).foreach(slot => assert(model.getOrElse(s.dstAt(slot), Vector.empty).contains(s.tag(slot)), ctx))
  }

  /** Apply one batch of inserts then deletes to the store and the model, and
    * check it: each delete took its dst's earliest instance, the store
    * matches the model, and the dst index exists as the rule says (built once
    * the inserts take the store past `MaxScan` slots, dropped once the
    * deletes leave it at `DropIndexAt` or fewer).
    */
  private def applyBatch(s: TaggedStore, model: Model, ins: Seq[(Int, Int)], dels: Seq[Int], presize: Boolean,
      universe: Seq[Int], ctx: String): Model = {
    val indexed = s.indexed || s.degree + ins.size > SlotStore.MaxScan
    var m = model
    s.insertBatch(ins, presize)
    ins.foreach { case (x, t) => m = m.updated(x, m.getOrElse(x, Vector.empty) :+ t) }
    val removed = s.deleteBatch(dels)
    dels.zip(removed).foreach { case (x, got) =>
      val q = m.getOrElse(x, Vector.empty)
      if (q.isEmpty) assert(got == -1, s"$ctx: delete of absent $x removed $got")
      else {
        assert(got == q.head, s"$ctx: delete of $x removed tag $got, not the earliest ${q.head}")
        m = if (q.size == 1) m - x else m.updated(x, q.tail)
      }
    }
    assert(s.indexed == (indexed && s.degree > SlotStore.DropIndexAt), s"$ctx: dst index at ${s.degree} slots")
    assertMatches(s, m, universe, ctx)
    m
  }

  test("dst index: seeded differential test against a per-dst queue of instances") {
    val rnd = new Random(4242)
    // dsts sharing one home entry of the index at every capacity up to 1024
    // (probe chains and backward-shift deletes), a run of dsts homed one entry
    // later (shifts across homes), and enough others for several rehashes
    val colliding = Iterator.from(0).filter(IntIntMap.homeEntry(_, 1024) == 17).take(24).toVector
    val nextHome = Iterator.from(0).filter(IntIntMap.homeEntry(_, 1024) == 18).take(12).toVector
    val clustered = colliding ++ nextHome
    val spread = Vector.fill(400)(rnd.nextInt(1 << 20))
    val universe = (clustered ++ spread).distinct
    val hot = colliding.take(3) ++ spread.take(2) // heavy duplicates
    def pick(): Int =
      if (rnd.nextInt(3) == 0) hot(rnd.nextInt(hot.size))
      else if (rnd.nextBoolean()) clustered(rnd.nextInt(clustered.size))
      else spread(rnd.nextInt(spread.size))

    val s = new TaggedStore
    var model: Model = Map.empty
    var nextTag = 0
    var maxDegree = 0
    (0 until 400).foreach { b =>
      val growing = b < 250
      val ins = Seq.fill(rnd.nextInt(if (growing) 24 else 6)) { nextTag += 1; (pick(), nextTag) }
      // deletes mostly name live dsts (some twice), sometimes absent ones
      val live = model.keys.toVector
      val dels = Seq.fill(rnd.nextInt(if (growing) 10 else 24)) {
        if (live.isEmpty || rnd.nextInt(5) == 0) pick() else live(rnd.nextInt(live.size))
      }
      model = applyBatch(s, model, ins, dels, rnd.nextBoolean(), universe, s"batch $b")
      maxDegree = math.max(maxDegree, s.degree)
    }
    assert(maxDegree > 1000, s"the store never grew past $maxDegree slots")
    // drain: every remaining instance leaves in timestamp order
    while (model.nonEmpty) model = applyBatch(s, model, Nil, model.keys.take(40).toSeq ++ hot, false, universe, "drain")
    assert(s.degree == 0)
  }

  for ((mode, base) <- Seq("scan" -> 8, "index" -> (SlotStore.MaxScan + 8))) {
    test(s"nextDup ring: none while no dst repeats, started by a repeat in the middle of a batch, dropped with the last repeat ($mode mode)") {
      val universe = 0 until base + 4
      val s = new TaggedStore
      var model = applyBatch(s, Map.empty, (0 until base).map(x => (x, 1000 + x)), Seq(2, base + 3), false, universe, "distinct")
      assert(!s.ringed && s.indexed == (mode == "index"))
      // two new dsts, a repeat of 3, one more new dst, a second repeat of 3 and a repeat of a dst new in this batch
      val ins = Seq((base, 1), (base + 1, 2), (3, 3), (base + 2, 4), (3, 5), (base + 1, 6))
      model = applyBatch(s, model, ins, Nil, true, universe, "first repeats")
      assert(s.ringed && s.tagsOf(3) == Seq(1003, 3, 5) && s.tagsOf(base + 1) == Seq(2, 6) && s.tagsOf(base) == Seq(1))
      // each delete takes the earliest instance; the last repeat's delete drops the ring
      model = applyBatch(s, model, Nil, Seq(3, base + 1, 0, 3), false, universe, "deletes")
      assert(!s.ringed && s.tagsOf(3) == Seq(5) && s.tagsOf(base + 1) == Seq(6))
      // an edge deleted and inserted again in one batch: both instances live only inside the batch
      model = applyBatch(s, model, Seq((3, 7), (0, 8)), Seq(3), true, universe, "delete and insert again")
      assert(!s.ringed && s.tagsOf(3) == Seq(7) && s.tagsOf(0) == Seq(8))
    }
  }

  test("nextDup ring: a seeded differential test without a repeated dst never starts one") {
    val rnd = new Random(5151)
    val universe = 0 until 120
    val s = new TaggedStore
    var model: Model = Map.empty
    var nextTag = 0
    (0 until 300).foreach { b =>
      val absent = rnd.shuffle(universe.filterNot(model.contains).toList)
      val ins = absent.take(rnd.nextInt(if (b % 60 < 30) 12 else 3)).map { x => nextTag += 1; (x, nextTag) }
      val dels = Seq.fill(rnd.nextInt(if (b % 60 < 30) 4 else 12))(universe(rnd.nextInt(universe.size)))
      model = applyBatch(s, model, ins, dels, rnd.nextBoolean(), universe, s"batch $b")
      assert(!s.ringed, s"batch $b")
    }
  }

  test("dst index: seeded differential test, a few duplicated dsts crossing the scan threshold both ways") {
    val rnd = new Random(3232)
    val universe = Vector(3, 8, 21, 40, 77, 1 << 20) // the last one is never inserted
    def pick(): Int = universe(rnd.nextInt(universe.size - 1))
    val s = new TaggedStore
    var model: Model = Map.empty
    var nextTag = 0
    var builds = 0
    var drops = 0
    def batch(insMax: Int, delMax: Int, ctx: String): Unit = {
      val ins = Seq.fill(rnd.nextInt(insMax + 1)) { nextTag += 1; (pick(), nextTag) }
      // a dst is often deleted more times than it has instances
      val dels = Seq.fill(rnd.nextInt(delMax + 1))(if (rnd.nextInt(8) == 0) universe.last else pick())
      val before = s.indexed
      model = applyBatch(s, model, ins, dels, rnd.nextBoolean(), universe, ctx)
      if (!before && s.indexed) builds += 1
      if (before && !s.indexed) drops += 1
    }
    (0 until 8).foreach { cycle =>
      val top = SlotStore.MaxScan + 1 + rnd.nextInt(16)
      while (s.degree < top) batch(8, 2, s"cycle $cycle, growing")
      val bottom = rnd.nextInt(SlotStore.DropIndexAt + 1)
      while (s.degree > bottom) batch(2, 10, s"cycle $cycle, shrinking")
    }
    assert(builds >= 8 && drops >= 8, s"the index was built $builds and dropped $drops times")
  }
}
