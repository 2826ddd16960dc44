package experiments

import (
	"time"

	"ndnprivacy/internal/cache"
	"ndnprivacy/internal/ndn"
)

func privateEntryWithDelay(name string, fetchDelay time.Duration) *cache.Entry {
	d, err := ndn.NewData(ndn.MustParseName(name), []byte("x"))
	if err != nil {
		panic(err) // unreachable: constant non-empty payload
	}
	d.Private = true
	return &cache.Entry{Data: d, Private: true, FetchDelay: fetchDelay}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
