package core

import (
	"strings"
	"testing"
)

// envProbe records what its Env exposes.
type envProbe struct {
	net  *Network
	self *Proc
	ch   *Channel
}

func (e *envProbe) Run(env *Env) error {
	e.net = env.Network()
	e.self = env.Self()
	e.ch = env.NewChannel("made-by-env", 32)
	return nil
}

func TestEnvAccessors(t *testing.T) {
	n := NewNetwork()
	probe := &envProbe{}
	p := n.Spawn(probe)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if probe.net != n {
		t.Fatal("Env.Network wrong")
	}
	if probe.self != p {
		t.Fatal("Env.Self wrong")
	}
	if probe.ch == nil || probe.ch.Name() != "made-by-env" {
		t.Fatal("Env.NewChannel wrong")
	}
	if p.Name() != "envProbe" {
		t.Fatalf("Proc.Name = %q", p.Name())
	}
	if p.Body() != probe {
		t.Fatal("Proc.Body wrong")
	}
	select {
	case <-p.Done():
	default:
		t.Fatal("Done channel not closed after Wait")
	}
	n.Wait()
}

func TestPortStringAndNames(t *testing.T) {
	ch := NewChannel("x", 8)
	if !strings.Contains(ch.Reader().String(), "x.r") {
		t.Fatalf("reader String = %q", ch.Reader().String())
	}
	if !strings.Contains(ch.Writer().String(), "x.w") {
		t.Fatalf("writer String = %q", ch.Writer().String())
	}
	r := ch.Reader()
	r.Detach()
	if r.Name() == "" {
		t.Fatal("detached reader has empty name")
	}
	var nilR ReadPort
	if nilR.Name() != "<detached>" || nilR.Channel() != nil {
		t.Fatal("zero ReadPort accessors wrong")
	}
	var nilW WritePort
	if nilW.Name() != "<detached>" || nilW.Channel() != nil {
		t.Fatal("zero WritePort accessors wrong")
	}
	if nilR.Detach() != nil || nilW.Detach() != nil {
		t.Fatal("zero port Detach should be nil")
	}
}

func TestNamerOverridesTypeName(t *testing.T) {
	n := NewNetwork()
	p := n.Spawn(&namedProc{})
	p.Wait()
	if p.Name() != "custom-name" {
		t.Fatalf("got %q", p.Name())
	}
	n.Wait()
}

type namedProc struct{}

func (p *namedProc) ProcessName() string { return "custom-name" }
func (p *namedProc) Run(env *Env) error  { return nil }

// A zero Iterations is no limit: the process steps until its channel
// ends, and Done still counts every element it moved.
func TestIterativeZeroMeansUnlimited(t *testing.T) {
	n := NewNetwork()
	ch := n.NewChannel("c", 8)
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i)
	}
	n.Spawn(&emitter{Out: ch.Writer(), Values: vals})
	sk := &limitedSink{In: ch.Reader()}
	n.Spawn(sk)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(sk.got) != len(vals) || sk.Done != int64(len(vals)) {
		t.Fatalf("read %d values, Done %d; want %d", len(sk.got), sk.Done, len(vals))
	}
}
