package conduit

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"dpn/internal/faults"
	"dpn/internal/netio"
	"dpn/internal/stream"
)

func waitLink(t *testing.T, l Link, what string) error {
	t.Helper()
	select {
	case <-l.Done():
		return l.Wait()
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never shut down", what)
		return nil
	}
}

// The consolidated catalogue must match errors from the origin packages
// through errors.Is, including when wrapped, so no caller ever needs to
// import stream or netio just to classify a failure.
func TestSentinelCatalogueMatchesOrigins(t *testing.T) {
	pairs := []struct {
		alias, origin error
	}{
		{ErrReadClosed, stream.ErrReadClosed},
		{ErrWriteClosed, stream.ErrWriteClosed},
		{ErrBadFrame, netio.ErrBadFrame},
		{ErrBrokerClosed, netio.ErrBrokerClosed},
		{ErrRendezvousTimeout, netio.ErrRendezvousTimeout},
		{ErrLinkDeadline, netio.ErrLinkDeadline},
		{ErrInjected, faults.ErrInjected},
	}
	for _, p := range pairs {
		if !errors.Is(p.origin, p.alias) {
			t.Errorf("errors.Is(%v, alias) = false", p.origin)
		}
		wrapped := fmt.Errorf("link to peer: %w", p.origin)
		if !errors.Is(wrapped, p.alias) {
			t.Errorf("wrapped %v did not match its alias", p.origin)
		}
	}
}

func TestBenignCloseAndDegradeAreDisjoint(t *testing.T) {
	benign := []error{
		io.EOF, io.ErrUnexpectedEOF, io.ErrClosedPipe,
		ErrReadClosed, ErrWriteClosed, ErrDetached,
		fmt.Errorf("write ab: %w", ErrReadClosed),
	}
	degrade := []error{
		ErrLinkDeadline, ErrBrokerClosed, ErrRendezvousTimeout,
		ErrBadFrame, ErrInjected,
		fmt.Errorf("reconnect: %w", ErrLinkDeadline),
	}
	for _, err := range benign {
		if !IsBenignClose(err) {
			t.Errorf("IsBenignClose(%v) = false", err)
		}
		if IsDegrade(err) {
			t.Errorf("IsDegrade(%v) = true for a benign close", err)
		}
	}
	for _, err := range degrade {
		if !IsDegrade(err) {
			t.Errorf("IsDegrade(%v) = false", err)
		}
		if IsBenignClose(err) {
			t.Errorf("IsBenignClose(%v) = true for a degrade", err)
		}
	}
	if IsBenignClose(nil) || IsDegrade(nil) {
		t.Error("nil classified as a close state")
	}
	if other := errors.New("something else"); IsBenignClose(other) || IsDegrade(other) {
		t.Error("unknown error classified")
	}
}

func TestEndpointServe(t *testing.T) {
	if !(Endpoint{Token: "t"}).Serve() {
		t.Error("empty Addr should serve")
	}
	if (Endpoint{Addr: "127.0.0.1:9", Token: "t"}).Serve() {
		t.Error("non-empty Addr should dial")
	}
}

// Forward cascade over the loopback transport: writer closes, the
// reader drains every byte and then sees EOF, and both links finish
// cleanly.
func TestLoopbackForwardCascade(t *testing.T) {
	lb := NewLoopback()
	a := New("a", 64)
	b := New("b", 64)

	out, err := a.BindSink(lb, Endpoint{Token: "t"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := b.BindSource(lb, Endpoint{Token: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Outbound() || in.Outbound() {
		t.Fatal("link directions wrong")
	}
	if addr, err := out.PeerAddr(); err != nil || addr == "" {
		t.Fatalf("peer addr: %q, %v", addr, err)
	}

	msg := bytes.Repeat([]byte("conduit!"), 100)
	go func() {
		a.Entry().Write(msg)
		a.Entry().Close()
	}()
	got, err := io.ReadAll(b.Exit())
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %d bytes, want %d", len(got), len(msg))
	}
	if err := waitLink(t, out, "outbound link"); err != nil {
		t.Fatalf("outbound link: %v", err)
	}
	if err := waitLink(t, in, "inbound link"); err != nil {
		t.Fatalf("inbound link: %v", err)
	}
}

// Reverse cascade: the consumer closes its end, and the producer's next
// write observes a benign close rather than blocking forever (§3.4 in
// the upstream direction).
func TestLoopbackReverseCascade(t *testing.T) {
	lb := NewLoopback()
	a := New("a", 16)
	b := New("b", 16)

	out, err := a.BindSink(lb, Endpoint{Token: "t"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.BindSource(lb, Endpoint{Token: "t"}); err != nil {
		t.Fatal(err)
	}
	b.Exit().Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := a.Entry().Write([]byte("x"))
		if err != nil {
			if !IsBenignClose(err) {
				t.Fatalf("writer saw %v, want a benign close", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never poisoned after reader close")
		}
		time.Sleep(time.Millisecond)
	}
	if err := waitLink(t, out, "outbound link"); err != nil {
		t.Fatalf("outbound link: %v", err)
	}
}

func TestLoopbackRejectsDoubleBind(t *testing.T) {
	lb := NewLoopback()
	a := New("a", 16)
	if _, err := a.BindSink(lb, Endpoint{Token: "t"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := New("a2", 16).BindSink(lb, Endpoint{Token: "t"}, 0); err == nil {
		t.Fatal("second outbound bind on one token accepted")
	}
}

func TestLoopbackLinkCannotMigrate(t *testing.T) {
	lb := NewLoopback()
	l, err := New("a", 16).BindSink(lb, Endpoint{Token: "t"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Move("x", "y"); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("Move: %v, want ErrUnsupported", err)
	}
	if _, err := l.Redirect("y"); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("Redirect: %v, want ErrUnsupported", err)
	}
}

// SealAndDrain and Restore are the two halves of a live-endpoint
// rebind: the drained bytes restored into a fresh conduit read back
// identically, ahead of anything written after the rebind.
func TestSealDrainRestoreRoundTrip(t *testing.T) {
	src := New("src", 256)
	payload := []byte("buffered-mid-migration")
	if _, err := src.Entry().Write(payload); err != nil {
		t.Fatal(err)
	}
	if got := src.Buffer().Buffered(); got != len(payload) {
		t.Fatalf("Buffered = %d, want %d", got, len(payload))
	}
	leftover, err := src.SealAndDrain()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leftover, payload) {
		t.Fatalf("drained %q", leftover)
	}

	dst := New("dst", 256)
	if err := dst.Restore(leftover); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Entry().Write([]byte("+post")); err != nil {
		t.Fatal(err)
	}
	dst.Entry().Close()
	got, err := io.ReadAll(dst.Exit())
	if err != nil {
		t.Fatal(err)
	}
	if want := string(payload) + "+post"; string(got) != want {
		t.Fatalf("restored stream = %q, want %q", got, want)
	}
}

func TestSealAndDrainEmpty(t *testing.T) {
	c := New("empty", 32)
	b, err := c.SealAndDrain()
	if err != nil || len(b) != 0 {
		t.Fatalf("drain empty: %q, %v", b, err)
	}
	if err := New("d", 32).Restore(nil); err != nil {
		t.Fatalf("restore nil: %v", err)
	}
}

// Every transport rebind counts on the conduit, by dir; the network
// exposes the counts as dpn_conduit_rebinds_total (core's
// TestRebindSeries).
func TestRebindAccounting(t *testing.T) {
	lb := NewLoopback()
	c := New("r", 32)
	if _, err := c.BindSink(lb, Endpoint{Token: "t1"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BindSource(lb, Endpoint{Token: "t2"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Rebinds(); got != [2]int64{1, 1} {
		t.Fatalf("rebinds [source sink] = %v, want [1 1]", got)
	}
}
