package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The two-phase parallel delete-and-swap of paper Fig. 10b
  * ([[SlotStore.twoPhaseCompact]]) on plain arrays whose entries start out
  * equal to their positions.
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
}
