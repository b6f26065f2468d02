package sketch

import (
	"math/rand"
	"testing"
)

func TestGeometry(t *testing.T) {
	c, err := New(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Width() != 128 {
		t.Fatalf("width %d, want 128 (rounded up to a power of two)", c.Width())
	}
	if c.Depth() != 3 {
		t.Fatalf("depth %d, want 3", c.Depth())
	}
	if c.Bytes() != 3*128 {
		t.Fatalf("bytes %d, want %d", c.Bytes(), 3*128)
	}
	if _, err := New(-1, 2); err == nil {
		t.Fatal("negative width accepted")
	}
	if _, err := New(64, 0); err == nil {
		t.Fatal("zero depth accepted")
	}
	if _, err := New(64, 9); err == nil {
		t.Fatal("depth 9 accepted")
	}
}

// TestOneSided drives a random add/sub interleaving against an exact shadow
// and checks the defining invariant after every operation: the estimate of
// every touched key is at least its true count.
func TestOneSided(t *testing.T) {
	c, err := New(128, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const keys = 1000 // ~8 keys per row cell: heavy collision pressure
	shadow := make([]int, keys)
	for step := 0; step < 20000; step++ {
		k := rng.Intn(keys)
		if shadow[k] > 0 && rng.Intn(3) == 0 {
			w := 1 + rng.Intn(shadow[k])
			c.Sub(k, w)
			shadow[k] -= w
		} else {
			w := 1 + rng.Intn(3)
			got := c.Add(k, w)
			shadow[k] += w
			if got < shadow[k] {
				t.Fatalf("step %d: Add estimate %d below true count %d", step, got, shadow[k])
			}
		}
		if est := c.Estimate(k); est < shadow[k] {
			t.Fatalf("step %d: estimate %d below true count %d for key %d", step, est, shadow[k], k)
		}
	}
	for k := 0; k < keys; k++ {
		if est := c.Estimate(k); est < shadow[k] {
			t.Fatalf("final: estimate %d below true count %d for key %d", est, shadow[k], k)
		}
	}
}

// TestExactWhenCollisionFree pins exactness when each key owns its cells:
// with few keys and a wide sketch the estimates equal the true counts.
func TestExactWhenCollisionFree(t *testing.T) {
	c, err := New(1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		for i := 0; i < k+1; i++ {
			c.Add(k, 1)
		}
	}
	for k := 0; k < 8; k++ {
		if est := c.Estimate(k); est != k+1 {
			t.Fatalf("key %d: estimate %d, want exact %d", k, est, k+1)
		}
	}
	c.Sub(3, 2)
	if est := c.Estimate(3); est != 2 {
		t.Fatalf("after Sub: estimate %d, want 2", est)
	}
	c.Reset()
	for k := 0; k < 8; k++ {
		if est := c.Estimate(k); est != 0 {
			t.Fatalf("after Reset: estimate %d, want 0", est)
		}
	}
}

// TestSaturationSticky drives one key past the ceiling and checks the
// counter pins at Saturated and no longer reacts to Sub.
func TestSaturationSticky(t *testing.T) {
	c, err := New(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(5, 300)
	if est := c.Estimate(5); est != Saturated {
		t.Fatalf("estimate %d, want saturated %d", est, Saturated)
	}
	c.Sub(5, 100)
	if est := c.Estimate(5); est != Saturated {
		t.Fatalf("after Sub: estimate %d, want sticky %d", est, Saturated)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := New(256, 2)
	b, _ := New(256, 2)
	for i := 0; i < 1000; i++ {
		a.Add(i%97, 1)
		b.Add(i%97, 1)
	}
	for k := 0; k < 97; k++ {
		if a.Estimate(k) != b.Estimate(k) {
			t.Fatalf("key %d: sketches with equal geometry disagree (%d vs %d)", k, a.Estimate(k), b.Estimate(k))
		}
	}
}
