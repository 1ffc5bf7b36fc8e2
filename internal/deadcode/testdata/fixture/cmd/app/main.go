// Command app is the fixture's one program: what it uses is reached.
package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	a.Used()
	fmt.Println(a.T{})
}
