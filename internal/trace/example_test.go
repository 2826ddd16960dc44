package trace_test

import (
	"fmt"

	"ndnprivacy/internal/trace"
)

// URLToName bridges proxy-trace URLs into the NDN namespace.
func ExampleURLToName() {
	name, _ := trace.URLToName("http://example.com:8080/videos/cat.avi")
	fmt.Println(name)
	// Output:
	// /web/example.com/videos/cat.avi
}
