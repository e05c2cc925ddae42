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

    def insert(dst: Int, t: Int): Unit = { val slot = appendSlot(dst); tag(slot) = t }

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

  /** Apply one batch of inserts then deletes to the store and the model. */
  private def applyBatch(s: TaggedStore, model: Model, ins: Seq[(Int, Int)], dels: Seq[Int], ctx: String): Model = {
    var m = model
    ins.foreach { case (x, t) => s.insert(x, t); m = m.updated(x, m.getOrElse(x, Vector.empty) :+ t) }
    val removed = s.deleteBatch(dels)
    dels.zip(removed).foreach { case (x, got) =>
      val q = m.getOrElse(x, Vector.empty)
      if (q.isEmpty) assert(got == -1, s"$ctx: delete of absent $x removed $got")
      else {
        assert(got == q.head, s"$ctx: delete of $x removed tag $got, not the earliest ${q.head}")
        m = if (q.size == 1) m - x else m.updated(x, q.tail)
      }
    }
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
      val ctx = s"batch $b"
      model = applyBatch(s, model, ins, dels, ctx)
      assertMatches(s, model, universe, ctx)
      maxDegree = math.max(maxDegree, s.degree)
    }
    assert(maxDegree > 1000, s"the store never grew past $maxDegree slots")
    // drain: every remaining instance leaves in timestamp order
    while (model.nonEmpty) {
      model = applyBatch(s, model, Nil, model.keys.take(40).toSeq ++ hot, "drain")
      assertMatches(s, model, universe, "drain")
    }
    assert(s.degree == 0)
  }
}
