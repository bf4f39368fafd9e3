package mpi

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunBasics(t *testing.T) {
	var count atomic.Int32
	err := Run(8, func(c *Comm) error {
		if c.Size() != 8 {
			t.Errorf("size = %d", c.Size())
		}
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 8 {
		t.Fatalf("ran %d ranks", count.Load())
	}
}

func TestRunValidation(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("size 0 must fail")
	}
}

func TestRunCollectsErrors(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return errRank2
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 failed") {
		t.Fatalf("err = %v", err)
	}
}

var errRank2 = errorString("rank 2 failed")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestRunRecoversPanics(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.isend(1, 7, 42)
			return nil
		}
		if v := c.irecv(0, 7); v.(int) != 42 {
			t.Errorf("recv = %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.isend(1, 1, "tag1")
			c.isend(1, 2, "tag2")
			return nil
		}
		// Receive in opposite tag order.
		v2 := c.irecv(0, 2)
		v1 := c.irecv(0, 1)
		if v1.(string) != "tag1" || v2.(string) != "tag2" {
			t.Errorf("tag matching broken: %v %v", v1, v2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvFIFOPerTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.isend(1, 0, i)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			if v := c.irecv(0, 0); v.(int) != i {
				t.Errorf("message %d arrived as %v", i, v)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var before, after atomic.Int32
	err := Run(8, func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		before.Add(1)
		c.Barrier()
		// At this point every rank must have passed `before`.
		if got := before.Load(); got != 8 {
			t.Errorf("rank %d: before = %d at barrier exit", c.Rank(), got)
		}
		after.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusable(t *testing.T) {
	var sum atomic.Int64
	err := Run(4, func(c *Comm) error {
		for round := 0; round < 20; round++ {
			sum.Add(1)
			c.Barrier()
			want := int64((round + 1) * 4)
			if got := sum.Load(); got != want {
				t.Errorf("round %d: sum = %d, want %d", round, got, want)
				return nil
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		var v any
		if c.Rank() == 2 {
			v = "payload"
		}
		got := c.Bcast(2, v)
		if got.(string) != "payload" {
			t.Errorf("rank %d: bcast = %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastSingleRank(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if got := c.Bcast(0, 5); got.(int) != 5 {
			t.Errorf("bcast = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		vals := c.Gather(3, c.Rank()*10)
		if c.Rank() != 3 {
			if vals != nil {
				t.Errorf("non-root got %v", vals)
			}
			return nil
		}
		for r, v := range vals {
			if v.(int) != r*10 {
				t.Errorf("vals[%d] = %v", r, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		vals := c.Allgather(c.Rank() + 100)
		if len(vals) != 5 {
			t.Errorf("len = %d", len(vals))
			return nil
		}
		for r, v := range vals {
			if v.(int) != r+100 {
				t.Errorf("vals[%d] = %v", r, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldCommValidation(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Comm(2); err == nil {
		t.Fatal("out-of-range rank must fail")
	}
	if _, err := w.Comm(-1); err == nil {
		t.Fatal("negative rank must fail")
	}
}

func TestManyRanksStress(t *testing.T) {
	err := Run(32, func(c *Comm) error {
		for round := 0; round < 5; round++ {
			vals := c.Allgather(int64(c.Rank()))
			var sum int64
			for _, v := range vals {
				sum += v.(int64)
			}
			if sum != 31*32/2 {
				t.Errorf("round %d sum = %d", round, sum)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		vals := make([]any, 4)
		for r := 0; r < 4; r++ {
			vals[r] = c.Rank()*10 + r
		}
		got, err := c.Alltoall(vals)
		if err != nil {
			return err
		}
		for sender, v := range got {
			if v.(int) != sender*10+c.Rank() {
				t.Errorf("rank %d from %d: %v", c.Rank(), sender, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Alltoall([]any{1}); err == nil {
				t.Error("short alltoall must fail")
			}
			// Unblock rank 1 with a proper exchange.
			_, err := c.Alltoall([]any{1, 2})
			return err
		}
		_, err := c.Alltoall([]any{3, 4})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
