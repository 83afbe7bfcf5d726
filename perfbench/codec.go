package main

import (
	"time"

	"selfstabsnap/internal/wire"
)

// codecReplay is the wire layer measured on a workload's real message mix:
// the traced run keeps a sample of the messages the shim saw sent, and
// after the run each is marshalled and unmarshalled reps times.
type codecReplay struct {
	marshalNS, unmarshalNS, bytes float64
}

func replayCodec(msgs []*wire.Message, reps int) (codecReplay, error) {
	if len(msgs) == 0 {
		return codecReplay{}, nil
	}
	frames := make([][]byte, len(msgs))
	var total int
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i, m := range msgs {
			frames[i] = wire.Marshal(m)
		}
	}
	marshal := time.Since(t0)
	for _, f := range frames {
		total += len(f)
	}
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			if _, err := wire.Unmarshal(f); err != nil {
				return codecReplay{}, err
			}
		}
	}
	unmarshal := time.Since(t0)
	ops := float64(reps * len(msgs))
	return codecReplay{
		marshalNS:   float64(marshal.Nanoseconds()) / ops,
		unmarshalNS: float64(unmarshal.Nanoseconds()) / ops,
		bytes:       float64(total) / float64(len(msgs)),
	}, nil
}
